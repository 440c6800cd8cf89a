"""Hypothesis-gated checkers for the quantitative theorems.

Every checker evaluates its theorem's hypotheses on the concrete input
and only asserts the conclusion when all of them hold; otherwise the
verdict is "not-applicable" and the conclusion's truth value is still
computed and recorded as informational, because the boundary cases are
exactly where tightness shows.  A "violated" verdict always carries a
witness, and `replay_witness` re-runs it bit for bit, with formcore ranks,
radicals and `evaluate` and no line table or batched elimination.  An
orthogonality witness replays through formcore alone; spectrum-element and
radical-equality ones build their forms with `form_from_coefficients`
(`flat_forms_for`), and extension ones walk `enumerate_nonzero`
(`flat_forms_for`, `matmul_arr`) and add with `add_arr`.  Kernel-bound and
counting-identity witnesses replay by a `kernel_at` solve per vector, its
system built in scalar field arithmetic, not the stored per-line M_u the
checkers read.  A spectrum, m or radical count that a witness needs is
recounted over `enumerate_nonzero` with formcore, never read from the
`rank_spectrum`, `lines` or `radical_spread` it checks, and a spread
witness's covers and pairwise-trivial flags are recounted from those
radicals with `linalg.rank`, one per meet and one per membership of a
vector of V.  A dimension-bound witness replays from that spectrum and
M's dimension against the bound it records.  The spread,
isotropic-partition, Witt-census and filtration checkers only record
counts: their witnesses do not replay.

Floor/ceiling boundaries are implemented exactly as each theorem states
them; constant rank is always re-derived from the spectrum, never read
off metadata.

One overrun rule serves every checker (`_checker`): a BudgetExceeded
raised anywhere in it becomes its "budget-exceeded" report, except in
`check_dimension_bounds`, whose list reports it as "dimension-bounds".
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import linalg
from .formcore import GramForm, evaluate, left_radical, rank, right_radical
from .spanspace import (
    DEFAULT_BUDGET,
    _BLOCK,
    KIND_ALTERNATING,
    BudgetExceeded,
    FormSubspace,
    charge,
    enumerate_nonzero,
    flat_forms_for,
    full_kind_space,
    induced_partition,
    isotropic_set,
    kernel_at,
    kernel_dims_all,
    kernel_matrices,
    kernel_table,
    line_representatives,
    line_table,
    lines,
    max_rank_incidence,
    null_spaces,
    partition_status,
    radical_spread,
    rank_spectrum,
    reduced_null_spaces,
)

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class Hypothesis:
    name: str
    required: str
    actual: str
    satisfied: bool


@dataclass
class VerificationReport:
    theorem_id: str
    hypotheses: tuple[Hypothesis, ...]
    verdict: str
    witness: Optional[dict] = None
    details: dict = dc_field(default_factory=dict)

    @property
    def applicable(self) -> bool:
        return all(h.satisfied for h in self.hypotheses)

    def to_json(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "hypotheses": [
                {
                    "name": h.name,
                    "required": h.required,
                    "actual": h.actual,
                    "satisfied": h.satisfied,
                }
                for h in self.hypotheses
            ],
            "verdict": self.verdict,
            "witness": self.witness,
            "details": self.details,
        }


def _hyp(name: str, required: str, actual, satisfied: bool) -> Hypothesis:
    return Hypothesis(name, required, str(actual), bool(satisfied))


def _shared(M: FormSubspace, spec, *names: str) -> list[Hypothesis]:
    """The hypotheses several theorems share, by name, in the order asked for."""
    q, d, n, m = M.field.q, M.dim, M.n, spec.m
    table = {
        "constant rank": ("|rank(M)| = 1", f"rank(M) = {list(spec.ranks)}", spec.is_constant_rank),
        "field size": (f"q >= m+1 = {m + 1}", f"q = {q}", q >= m + 1),
        "full dimension": (f"dim M = n = {n}", f"dim M = {d}", d == n),
        "alternating": ("M <= Alt(V)", M.kind, M.kind == KIND_ALTERNATING),
        "symmetric": ("M <= Symm(V)", M.kind, M.symmetric),
        "odd characteristic": ("q odd", f"q = {q}", q % 2 == 1),
    }
    return [_hyp(name, *table[name]) for name in names]


def _finish(theorem_id, hyps, conclusion_ok, witness=None, details=None) -> VerificationReport:
    """Gate the verdict: assert the conclusion only under satisfied hypotheses.

    The witness is kept only when the conclusion fails, in either branch.
    """
    details = dict(details or {})
    witness = None if conclusion_ok else witness
    if all(h.satisfied for h in hyps):
        return VerificationReport(theorem_id, tuple(hyps), HOLDS if conclusion_ok else VIOLATED, witness, details)
    info = {"conclusion_holds": bool(conclusion_ok)}
    if witness is not None:
        info["witness"] = witness
    details["informational"] = info
    return VerificationReport(theorem_id, tuple(hyps), NOT_APPLICABLE, None, details)


def _budget_report(theorem_id, exc: BudgetExceeded) -> VerificationReport:
    return VerificationReport(theorem_id, (), BUDGET_EXCEEDED, None, {"budget_error": str(exc)})


def _checker(theorem_id: str):
    """Apply the overrun rule to a checker body, which takes the theorem id before the caller's arguments."""
    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs):
            try:
                return body(theorem_id, *args, **kwargs)
            except BudgetExceeded as exc:
                return _budget_report(theorem_id, exc)
        return check
    return decorate


# ---------------------------------------------------------------------------
# Orthogonality: radical pairs of maximal-rank elements annihilate all of M


@_checker("orthogonality")
def check_orthogonality(tid, M: FormSubspace, budget: Optional[int] = None) -> VerificationReport:
    """g(u, w) = 0 for u, w in the radicals of any maximal-rank element.

    The full radical-pair scan factors exactly through radical bases:
    g restricted to rad_L f x rad_R f is the matrix U G W^T, and that
    being zero is equivalent to g vanishing on every point pair.
    """
    spec = rank_spectrum(M, budget)
    m = spec.m
    fld = M.field
    hyps = _shared(M, spec, "field size")
    keys = np.zeros(0, dtype=np.int64)  # the (rad_L, rad_R) id pair of each rank-m line
    if m:  # the zero subspace has no lines
        coeffs, ranks, left, right = lines(M, budget)
        at = np.flatnonzero(ranks == m)
        keys = left.ids[at] * len(right.dims) + right.ids[at]
    checked_elements, violation = len(keys), None
    firsts = np.sort(np.unique(keys, return_index=True)[1])
    pairs = keys[firsts]  # the distinct pairs, in order of first appearance
    k = M.n - m  # both radicals of a rank-m form have dim n - m
    basis = M.basis_flat().reshape(-1, M.n, M.n)
    per = max(1, _BLOCK // max(1, M.dim * k * M.n))
    for start in range(0, len(pairs) if k else 0, per):
        block = pairs[start:start + per]
        us = left.bases[block // len(right.dims), :k]
        ws = right.bases[block % len(right.dims), :k]
        # U G W^T for every pair and every basis form G at once: (pairs, d, k, k)
        vals = fld.matmul_arr(fld.matmul_arr(us[:, None], basis[None]), ws.transpose(0, 2, 1)[:, None])
        bad = np.flatnonzero(vals.reshape(len(block), -1).any(axis=1))
        if len(bad):
            b = int(bad[0])
            gi, i, j = (int(v) for v in np.argwhere(vals[b] != 0)[0])
            violation = {
                "kind": "orthogonality",
                "f_coefficients": [int(c) for c in coeffs[at[firsts[start + b]]]],
                "u": us[b, i].tolist(),
                "w": ws[b, j].tolist(),
                "g_index": gi,
                "value": int(vals[b, gi, i, j]),
            }
            # stop at the first violating pair, as a line-by-line scan would
            pairs, checked_elements = pairs[:start + b + 1], int(firsts[start + b]) + 1
            break
    details = {
        "max_rank": m,
        "max_rank_lines_checked": checked_elements,
        "distinct_radical_pairs": len(pairs),
        "radical_pair_points_covered": len(pairs) * fld.q ** (2 * k),
    }
    return _finish(tid, hyps, violation is None, violation, details)


# ---------------------------------------------------------------------------
# The double-count identity (q^d - 1)(q^(n-m) - 1) = sum over u of (q^d(u) - 1)


@_checker("counting-identity")
def check_counting_identity(tid, M: FormSubspace, budget: Optional[int] = None) -> VerificationReport:
    spec = rank_spectrum(M, budget)
    hyps = _shared(M, spec, "constant rank")
    q, d, n, m = M.field.q, M.dim, M.n, spec.m
    hist = np.bincount(kernel_dims_all(M, "left", budget), minlength=d + 1) * (q - 1)  # q - 1 u per line
    rhs = sum(int(c) * (q**k - 1) for k, c in enumerate(hist))
    lhs = (q**d - 1) * (q ** (n - m) - 1)
    witness = {
        "kind": "counting-identity",
        "lhs": lhs,
        "rhs": rhs,
        "kernel_dim_histogram": {str(k): int(c) for k, c in enumerate(hist) if c},
    }
    return _finish(tid, hyps, lhs == rhs, witness, {"lhs": lhs, "rhs": rhs})


# ---------------------------------------------------------------------------
# Kernel dimension lower bounds and their alternating refinement


@_checker("kernel-bounds")
def check_kernel_bounds(tid, M: FormSubspace, budget: Optional[int] = None) -> VerificationReport:
    """dim M_u >= dim M - n for all u; >= dim M - m when M_u holds a
    maximal-rank element and q >= m+1 (with the shared-radical equality
    case); >= dim M - (n-1) for alternating M."""
    spec = rank_spectrum(M, budget)
    q, d, n, m = M.field.q, M.dim, M.n, spec.m
    alternating = M.kind == KIND_ALTERNATING
    charge(q**n, max(d * n, 1), budget, tid)
    sides = ("left", "right")
    dims = np.stack([kernel_dims_all(M, side, budget) for side in sides], axis=1)  # (lines of V, 2)
    holds = shared = np.zeros_like(dims, dtype=bool)
    if m and q >= m + 1:  # the zero subspace has no lines to look at
        holds, shared = (np.stack(part, axis=1) for part in zip(*(max_rank_incidence(M, x, budget) for x in sides)))
    # (lemma, bound, where it fails), in the order each (u, side) is tested
    lemmas = (
        ("dim >= dim M - n", d - n, dims < d - n),
        ("alternating dim >= dim M - (n-1)", d - (n - 1), alternating & (dims < d - (n - 1))),
        ("dim >= dim M - m", d - m, holds & (dims < d - m)),
        ("equality case: shared radical", None, holds & (dims == d - m) & ~shared),
    )
    # M_{cu} = M_u, so one lead-1 u per line is exhaustive
    failing = np.argwhere(np.logical_or.reduce([f for _, _, f in lemmas]))
    violation = None
    if len(failing):
        at, s = (int(v) for v in failing[0])
        u = linalg.code_vectors(q, n, line_representatives(q, n)[at:at + 1])[0]
        lemma, bound = next((lem, b) for lem, b, f in lemmas if f[at, s])
        violation = {"kind": "kernel-bound", "u": [int(v) for v in u], "side": sides[s],
                     "dim_kernel": int(dims[at, s]), "lemma": lemma}
        if bound is None:
            violation["distinct_radicals"] = _distinct_radicals(M, u, sides[s], m, budget)
        else:
            violation["bound"] = bound
    return _finish(tid, [], violation is None, violation, {"max_rank": m})


def _distinct_radicals(M: FormSubspace, u, side: str, m: int, budget) -> int:
    """Distinct other-side radicals over the rank-m elements of M_u."""
    _, ranks, left, right = lines(M, budget)
    own, other = (left, right) if side == "left" else (right, left)
    with_u = np.concatenate([own.bases, np.broadcast_to(u, (len(own.dims), 1, M.n))], axis=1)  # [basis; u]
    holds_u = linalg.batch_rank(M.field, with_u) == own.dims
    return len(set(other.ids[(ranks == m) & holds_u[own.ids]].tolist()))


# ---------------------------------------------------------------------------
# The family of dimension bounds


def check_dimension_bounds(M: FormSubspace, budget: Optional[int] = None) -> list[VerificationReport]:
    """One gated report per dimension bound, informational when gated out."""
    try:
        spec = rank_spectrum(M, budget)
    except BudgetExceeded as exc:
        return [_budget_report("dimension-bounds", exc)]
    q, n, d = M.field.q, M.n, M.dim
    m, r = spec.m, spec.r
    p = M.field.p
    alternating = M.kind == KIND_ALTERNATING
    constant = spec.is_constant_rank
    out = []

    def bound(tid, hyps, limit, strict=False):
        ok = d < limit if strict else d <= limit
        wit = {"kind": "dimension-bound", "dim": d, "limit": limit, "strict": strict, "spectrum": list(spec.ranks)}
        out.append(_finish(tid, hyps, ok, wit, {"dim": d, "limit": limit, "spectrum": list(spec.ranks)}))

    nonzero = _hyp("nonzero subspace", "dim M >= 1", f"dim M = {d}", d >= 1)
    h_const, h_qm, h_alt, h_sym, h_odd = _shared(
        M, spec, "constant rank", "field size", "alternating", "symmetric", "odd characteristic")

    bound("bound-constant-rank-n", [nonzero, h_const, h_qm], n)
    bound(
        "bound-symmetric-rn",
        [nonzero, h_sym,
         _hyp("characteristic", "char K != 2", f"p = {p}", p != 2),
         _hyp("field size", f"q >= n = {n}", f"q = {q}", q >= n)],
        r * n - r * (r - 1) // 2,
    )
    bound("bound-alternating-max", [nonzero, h_alt, h_const, h_qm], max(n - 1, 2 * m - 1))
    bound(
        "bound-alternating-rn",
        [nonzero, h_alt, _hyp("rank range", f"m <= floor(n/2) = {n // 2}", f"m = {m}", m <= n // 2), h_qm],
        r * n - r * (r + 1) // 2,
    )
    bound(
        "bound-symmetric-two-thirds",
        [nonzero, h_sym, h_const, h_odd, h_qm,
         _hyp("rank range", "m <= 2n/3", f"m = {m}, n = {n}", 3 * m <= 2 * n)],
        n,
        strict=True,
    )
    bound(
        "bound-alternating-n-minus-2",
        [nonzero, h_alt, h_const,
         _hyp("rank range", f"4 <= m <= floor(n/2) = {n // 2}", f"m = {m}", 4 <= m <= n // 2),
         h_qm],
        n - 2,
    )
    bound("bound-bilinear-max", [nonzero, h_const, h_qm], max(n, 2 * m - 1))
    bound(
        "bound-bilinear-rn",
        [nonzero, _hyp("rank range", f"m <= ceil(n/2) = {(n + 1) // 2}", f"m = {m}", m <= (n + 1) // 2), h_qm],
        r * n,
    )
    bound(
        "bound-two-ranks-2n",
        [nonzero,
         _hyp("even dimension", "n even", f"n = {n}", n % 2 == 0),
         _hyp("spectrum", "rank(M) = {n/2, n}", f"rank(M) = {list(spec.ranks)}",
              n % 2 == 0 and spec.ranks == (n // 2, n)),
         _hyp("field size", f"q >= n/2+1 = {n // 2 + 1}", f"q = {q}", q >= n // 2 + 1)],
        2 * n,
    )

    if alternating and constant and d >= 1:
        # every rad_L f (dim n - m) holds the basis' common left radical: all equal iff the stacked basis has rank m
        all_equal = linalg.rank(M.field, M.basis_flat().reshape(d, n, n).transpose(1, 0, 2).reshape(n, d * n)) == m
        hyps = [nonzero, h_alt, h_const,
                _hyp("common radical", "all elements of M^x share one radical",
                     f"distinct radicals > 1: {not all_equal}", all_equal)]
        wit = {"kind": "dimension-bound", "dim": d, "limit": m // 2, "strict": False, "spectrum": list(spec.ranks)}
        out.append(_finish("bound-common-radical-half-m", hyps, d <= m // 2, wit, {"dim": d, "limit": m // 2}))
    else:
        hyps = [nonzero, h_alt, h_const,
                _hyp("common radical", "all elements of M^x share one radical",
                     "not evaluated (kind or rank hypothesis already fails)", False)]
        out.append(_finish("bound-common-radical-half-m", hyps, True, None, {}))
    return out


# ---------------------------------------------------------------------------
# Radical spreads of full-dimensional constant rank alternating subspaces


@_checker("spread")
def check_spread(tid, M: FormSubspace, budget: Optional[int] = None) -> VerificationReport:
    spec = rank_spectrum(M, budget)
    q, n, m = M.field.q, M.n, spec.m
    hyps = _shared(M, spec, "alternating", "constant rank", "full dimension", "field size")
    if M.kind != KIND_ALTERNATING or not spec.is_constant_rank:
        return _finish(tid, hyps, False, None,
                       {"note": "radical census undefined without alternating constant rank"})
    report = radical_spread(M, budget)
    expected_t = (q**n - 1) // (q ** (n - m) - 1) if m < n else 1
    divides = True if m == n else n % (n - m) == 0
    # the induced partition of M itself: M_i = {g : R_i <= rad g}, one n x d system per basis row of each R_i
    charge(report.t * (n - m), n * M.dim, budget, tid)
    induced_sizes, induced_trivial, induced_covers = induced_partition(M, report.radicals)
    ok = (
        report.covers
        and report.pairwise_trivial
        and report.t == expected_t
        and divides
        and induced_trivial
        and induced_covers
    )
    witness = {
        "kind": "spread",
        "t": report.t,
        "expected_t": expected_t,
        "covers": report.covers,
        "pairwise_trivial": report.pairwise_trivial,
        "induced_covers": induced_covers,
        "induced_trivial": induced_trivial,
    }
    details = {
        "t": report.t,
        "expected_t": expected_t,
        "radical_dims": sorted(set(report.radicals.dims.tolist())),
        "induced_dims": sorted(set(induced_sizes)),
    }
    return _finish(tid, hyps, ok, witness, details)


# ---------------------------------------------------------------------------
# Equality of left or of right radicals at maximal dimension


@_checker("radical-equality")
def check_radical_equality(tid, M: FormSubspace, budget: Optional[int] = None) -> VerificationReport:
    spec = rank_spectrum(M, budget)
    n, m = M.n, spec.m
    hyps = _shared(M, spec, "full dimension", "constant rank", "field size") + [
        _hyp("dimension gap", f"n >= 2m+1 = {2 * m + 1}", f"n = {n}", n >= 2 * m + 1)
    ]
    if M.dim == 0:
        return _finish(tid, hyps, True, None, {"note": "zero subspace"})
    coeffs, _, left, right = lines(M, budget)
    ok = len(left.dims) == 1 or len(right.dims) == 1
    witness = {
        "kind": "radical-equality",
        "left_pair": coeffs[left.first[:2]].tolist(),
        "right_pair": coeffs[right.first[:2]].tolist(),
    }
    return _finish(tid, hyps, ok, witness,
                   {"distinct_left_radicals": len(left.dims), "distinct_right_radicals": len(right.dims)})


# ---------------------------------------------------------------------------
# The isotropic partition and its counting identities


@_checker("isotropic-partition")
def check_isotropic_partition(tid, M: FormSubspace, budget: Optional[int] = None) -> VerificationReport:
    spec = rank_spectrum(M, budget)
    q, n, d, m = M.field.q, M.n, M.dim, spec.m
    hyps = _shared(M, spec, "symmetric", "odd characteristic", "constant rank", "full dimension", "field size")
    if not M.symmetric or q % 2 == 0:
        return _finish(tid, hyps, False, None, {"note": "isotropic set undefined here"})
    on_iso = isotropic_set(M, budget)  # I(M) by its lines
    # A_u is the null space of the rows u^T G_i, and A_{cu} = A_u: one system per isotropic line
    lead_one = linalg.code_vectors(q, n, line_representatives(q, n)[on_iso])
    charge(len(lead_one), d * n, budget, tid)
    classes = null_spaces(M.field, kernel_matrices(M, lead_one, "left").transpose(0, 2, 1))
    r_classes, class_dims = len(classes.dims), classes.dims.tolist()
    pairwise_trivial, union = partition_status(M.field, classes.bases, classes.dims)
    partition_ok = pairwise_trivial and np.array_equal(union, on_iso)
    lhs = sum((q**k - 1) ** 2 for k in class_dims)
    rhs = (q**n - 1) * (q ** (n - m) - 1)
    sum_ok = lhs == rhs
    r_ok = r_classes != 1 and (m >= n or r_classes >= 2)
    dim_match = True
    if d == n:
        dim_match = bool((kernel_dims_all(M, "left", budget)[on_iso] == classes.dims[classes.ids]).all())
    ok = partition_ok and sum_ok and r_ok and dim_match
    witness = {
        "kind": "isotropic-partition",
        "classes": r_classes,
        "squared_sum_lhs": lhs,
        "squared_sum_rhs": rhs,
        "partition_ok": partition_ok,
        "dim_A_u_equals_dim_M_u": dim_match,
    }
    details = {
        "isotropic_nonzero": (q - 1) * int(on_iso.sum()),
        "classes": r_classes,
        "class_dims": sorted(set(class_dims)),
        "squared_sum_lhs": lhs,
        "squared_sum_rhs": rhs,
    }
    return _finish(tid, hyps, ok, witness, details)


def _witt_indices(field, grams, reduced, m: int):
    """The Witt index of each symmetric form of a stack (L, n, n) whose forms all have even rank m > 0.

    The same index as the per-form Witt census oracle in `tests/oracles.py`
    gives, for the whole stack at once.
    `reduced` is the stack's `linalg.batch_rref`.  The pivot columns I of
    G's RREF index a complement of its radical, so G[I, I] is its
    non-degenerate part, and the index is m/2 when (-1)^(m/2) det G[I, I]
    is a square and m/2 - 1 otherwise.
    """
    k = m // 2
    piv = np.argmax(reduced[:, :m] != 0, axis=2)  # (L, m)
    parts = grams[np.arange(len(grams))[:, None, None], piv[:, :, None], piv[:, None, :]]
    square = field.is_square_arr(field.mul_arr(field.pow(field.neg(1), k), linalg.batch_det(field, parts)))
    return np.where(square, k, k - 1)


@_checker("witt-census")
def check_witt_census_identity(tid, M: FormSubspace, budget: Optional[int] = None) -> VerificationReport:
    """|I(M)^x| = (A - B) q^{-k} with A + B = q^n - 1 over the Witt census."""
    spec = rank_spectrum(M, budget)
    q, n, d, m = M.field.q, M.n, M.dim, spec.m
    sym, odd, full = _shared(M, spec, "symmetric", "odd characteristic", "full dimension")
    hyps = [sym, odd, _hyp("constant even rank", "rank(M) = {2k}", f"rank(M) = {list(spec.ranks)}",
                           spec.is_constant_rank and m % 2 == 0), full]
    if not M.symmetric or q % 2 == 0 or not spec.is_constant_rank or m % 2:
        return _finish(tid, hyps, False, None, {"note": "census undefined here"})
    k = m // 2
    charge(q**d, n**3, budget, tid)
    # c f has the isotropic vectors of f, so the Witt index is constant on each line
    coeffs, _, reduced = line_table(M, budget, tid)  # reduced: the walk's elimination of these Gram matrices
    grams = flat_forms_for(M, coeffs).reshape(-1, n, n)
    witt = np.bincount(_witt_indices(M.field, grams, reduced, m), minlength=k + 1)
    a_count, b_count = (q - 1) * int(witt[k]), (q - 1) * int(witt[k - 1])
    iso_count = (q - 1) * int(isotropic_set(M, budget).sum())  # q - 1 nonzero w per isotropic line
    total_ok = a_count + b_count == q**d - 1
    diff = a_count - b_count
    identity_ok = diff % (q**k) == 0 and diff // (q**k) == iso_count
    details = {"A": a_count, "B": b_count, "isotropic_nonzero": iso_count}
    return _finish(tid, hyps, total_ok and identity_ok, {"kind": "witt-census", **details, "q^k": q**k}, details)


# ---------------------------------------------------------------------------
# Maximality of the embedded trace family


@_checker("maximality")
def check_maximality(
    tid,
    M: FormSubspace,
    budget: Optional[int] = None,
    declared: Optional[dict] = None,
    seed: Optional[int] = None,
    trials: Optional[int] = None,
) -> VerificationReport:
    """Is M maximal among constant rank m subspaces of its kind space?

    Exhaustive when the ambient kind space fits the budget, otherwise a
    seeded sample of `trials` candidate extensions (1000 when None),
    charged per candidate as the exhaustive scan is, which reads the
    ambient space's `line_table`.  A found extension is conclusive either
    way and becomes the witness; a clean exhaustive scan certifies
    maximality.
    """
    spec = rank_spectrum(M, budget)
    q, n, d, m = M.field.q, M.n, M.dim, spec.m
    fld = M.field
    claims = bool(declared and declared.get("maximal"))
    ambient = full_kind_space(fld, n, M.kind)
    dk = ambient.dim
    exhaustive = (q**dk) * (q**d) * n * n <= (DEFAULT_BUDGET if budget is None else budget)
    hyps = _shared(M, spec, "constant rank") + [
        _hyp("declared maximal", "fixture claims maximality", str(claims), claims),
        _hyp("scan mode", "ambient kind space within budget", "exhaustive" if exhaustive else "sampled",
             exhaustive),
    ]
    if not spec.is_constant_rank:
        return _finish(tid, hyps, False, None, {"note": "only constant rank subspaces are extended"})
    if not exhaustive and seed is None:
        if claims:
            return VerificationReport(
                tid, tuple(hyps), BUDGET_EXCEEDED, None,
                {"budget_error": "fixture claims maximality but the ambient kind space "
                                 "is over budget and no sampling seed was given"})
        return VerificationReport(
            tid, tuple(hyps), NOT_APPLICABLE, None,
            {"mode": "skipped", "note": "ambient kind space over budget; nothing declared"})

    # h extends M iff every h + g, g in M, has rank m; for h in M the sum
    # with -h has rank 0 != m (constant rank, so m >= 1), so M needs no test
    stack = flat_forms_for(M, linalg.code_vectors(q, d))  # all of M, zero first
    if exhaustive:
        # h extends M iff c h does, and a line's lead-1 vector has its least code: one candidate per line
        # finds the first extension in the scan of all q^dk - 1, and its code is its position there;
        # h + 0 = h is one of the sums, so only the lines of rank m can extend
        charge(q**dk * q**d, n * n, budget, tid)
        coeffs, ranks, _ = line_table(ambient, budget, tid)
        coeffs = coeffs[ranks == m]
        at, tried = linalg.code_index(q, coeffs), q**dk - 1
    else:
        rng = np.random.default_rng(seed)
        trials = 1000 if trials is None else trials
        draws = (rng.integers(0, q, size=dk, dtype=np.int64) for _ in range(trials))
        coeffs = np.array([c for c in draws if c.any()], dtype=np.int64).reshape(-1, dk)
        charge(len(coeffs) * q**d, n * n, budget, tid)
        at, tried = np.arange(1, len(coeffs) + 1), len(coeffs)
    per = max(1, _BLOCK // len(stack))  # candidates per batch_rank call
    extension = None
    for start in range(0, len(coeffs), per):
        cands = flat_forms_for(ambient, coeffs[start:start + per])
        sums = fld.add_arr(cands[:, None, :], stack[None, :, :]).reshape(-1, n, n)
        extends = (linalg.batch_rank(fld, sums).reshape(len(cands), -1) == m).all(axis=1)
        if extends.any():
            first = int(np.argmax(extends))
            extension, tried = cands[first], int(at[start + first])
            break

    maximal = extension is None
    witness = None
    if extension is not None:
        witness = {
            "kind": "extension",
            "extension_rows": [[int(v) for v in row] for row in extension.reshape(n, n)],
            "rank": m,
        }
    details = {
        "mode": "exhaustive" if exhaustive else "sampled",
        "candidates_tried": tried,
        "maximal": maximal if exhaustive else (False if extension is not None else None),
    }
    return _finish(tid, hyps, maximal, witness, details)


# ---------------------------------------------------------------------------
# The filtration of a subspace meeting the rn bound


@_checker("filtration")
def check_filtration(tid, M: FormSubspace, budget: Optional[int] = None) -> VerificationReport:
    """Extract the chain M_s (dim sn, s smallest ranks) by the proof's recipe."""
    spec = rank_spectrum(M, budget)
    n, d, m, r = M.n, M.dim, spec.m, spec.r
    hyps = [
        _hyp("dimension", f"dim M = rn = {r * n}", f"dim M = {d}", d == r * n),
        _hyp("rank range", f"m <= ceil(n/2) = {(n + 1) // 2}", f"m = {m}", m <= (n + 1) // 2),
    ] + _shared(M, spec, "field size")
    chain = [(M, spec)]
    failed_at = None
    current, cur_spec = M, spec
    while cur_spec.r > 1:
        # the M_u of dim (r-1)n, u by lead-1 u and left before right, in the proof's order; where
        # G^T = +-G both sides are one table, and each right M_u repeats the left one just before it
        tables = [kernel_table(current, side, budget) for side in ("left", "right")]
        k = (cur_spec.r - 1) * n
        at, side = np.nonzero(np.stack([dims for dims, _ in tables], axis=1) == k)
        reduced = np.stack([red[at] for _, red in tables])[side, np.arange(len(at))]
        # distinct M_u in order of first appearance: the first to pass is the first u's that passes
        found = reduced_null_spaces(M.field, reduced, np.full(len(at), current.dim - k))
        for basis in found.bases:
            K = current.subspace_from_coefficients(basis[:k])
            kspec = rank_spectrum(K, budget)
            if kspec.ranks == cur_spec.ranks[:-1]:
                break
        else:
            failed_at = cur_spec.r
            break
        chain.append((K, kspec))
        current, cur_spec = K, kspec
    chain_ok = failed_at is None and all(
        sub.dim == s.r * n and s.ranks == spec.ranks[: s.r] for sub, s in chain
    )
    details = {
        "chain_dims": [sub.dim for sub, _ in chain],
        "chain_spectra": [list(s.ranks) for _, s in chain],
    }
    return _finish(tid, hyps, chain_ok, {"kind": "filtration", "failed_at_r": failed_at, **details}, details)


# ---------------------------------------------------------------------------
# Declared-claims consistency (the injectable checker)


@_checker("declared-claims")
def check_declared(tid, M: FormSubspace, declared: Optional[dict], budget: Optional[int] = None) -> VerificationReport:
    """Re-derive everything a fixture file claims about itself.

    True theorems cannot be violated by honest computation, so this is
    where corrupted fixtures fail: any mismatch between a declared
    dimension, kind, spectrum, spread t or radical count and the re-derived
    truth is a violation with a replayable witness.
    """
    has = bool(declared)
    hyps = [_hyp("declared claims", "fixture carries declared claims", str(has), has)]
    if not has:
        return _finish(tid, hyps, True, None, {"note": "nothing declared"})
    problems = []
    witness = None
    if "dim" in declared and declared["dim"] != M.dim:
        problems.append("dim")
        witness = witness or {"kind": "dim-mismatch", "declared_dim": declared["dim"], "actual_dim": M.dim}
    if "kind" in declared and declared["kind"] != M.kind:
        problems.append("kind")
        witness = witness or {"kind": "kind-mismatch", "declared_kind": declared["kind"], "actual_kind": M.kind}
    spec = None
    if "spectrum" in declared:
        spec = rank_spectrum(M, budget)
        want = tuple(sorted(declared["spectrum"]))
        if spec.ranks != want:
            problems.append("spectrum")
            if witness is None:
                witness = _spectrum_witness(M, want, budget)
    if "spread_t" in declared and not problems:
        spec = spec or rank_spectrum(M, budget)
        if M.kind == KIND_ALTERNATING and spec.is_constant_rank:
            rep = radical_spread(M, budget)
            if rep.t != declared["spread_t"] or not (rep.covers and rep.pairwise_trivial):
                problems.append("spread_t")
                witness = witness or {
                    "kind": "spread-mismatch",
                    "declared_t": declared["spread_t"],
                    "actual_t": rep.t,
                    "covers": rep.covers,
                    "pairwise_trivial": rep.pairwise_trivial,
                }
        else:
            problems.append("spread_t")
            witness = witness or {
                "kind": "spread-mismatch",
                "declared_t": declared["spread_t"],
                "actual_t": None,
                "note": "not constant-rank alternating, census undefined",
            }
    if "distinct_radicals" in declared:
        actual = len(lines(M, budget)[2].dims)  # the count a hunt accepts on: distinct left radicals over M^x
        if actual != declared["distinct_radicals"]:
            problems.append("distinct_radicals")
            witness = witness or {"kind": "radical-count-mismatch",
                                  "declared_radicals": declared["distinct_radicals"], "actual_radicals": actual}
    ok = not problems
    return _finish(tid, hyps, ok, witness, {"mismatches": problems})


def _spectrum_witness(M: FormSubspace, declared_ranks, budget) -> dict:
    """First element whose rank falls outside the declared spectrum.

    A line's lead-1 element comes first among its elements in the walk
    order (1 is the smallest nonzero code), so the first stray line of
    the table holds the first stray element.
    """
    allowed = sorted(set(declared_ranks))
    coeffs, ranks, _ = line_table(M, budget, "spectrum witness")
    stray = np.flatnonzero(~np.isin(ranks, allowed))
    if len(stray):
        return {
            "kind": "spectrum-mismatch",
            "coefficients": [int(c) for c in coeffs[stray[0]]],
            "rank": int(ranks[stray[0]]),
            "declared": allowed,
        }
    # no stray rank: some declared rank is missing entirely
    spec = rank_spectrum(M, budget)
    return {
        "kind": "spectrum-mismatch",
        "coefficients": None,
        "rank": None,
        "declared": allowed,
        "actual": list(spec.ranks),
    }


# ---------------------------------------------------------------------------
# Witness replay


def _element_ranks(M: FormSubspace) -> list[int]:
    """The distinct ranks over M^x, ascending: one formcore `rank` per element, replay's own count."""
    return sorted({rank(f) for _, f in enumerate_nonzero(M)})


def _spread_status(field, n: int, rads) -> tuple[bool, bool]:
    """(covers V, meet pairwise trivially) for subspaces of V given by basis rows, by `linalg.rank` alone.

    u lies in R iff adding it keeps R's rank, and R, S meet trivially iff their stacked rows stay independent.
    """
    trivial = all(linalg.rank(field, np.vstack([a, b])) == len(a) + len(b) for a, b in itertools.combinations(rads, 2))
    covers = all(any(linalg.rank(field, np.vstack([r, u])) == len(r) for r in rads)
                 for u in linalg.code_vectors(field.q, n) if u.any())
    return covers, trivial


def replay_witness(M: FormSubspace, witness: dict) -> bool:
    """Re-run a violation witness through formcore; True iff it reproduces."""
    kind = witness.get("kind")
    if kind == "spectrum-mismatch":
        if witness.get("coefficients") is None:
            return _element_ranks(M) == witness["actual"] != witness["declared"]
        f = M.form_from_coefficients(witness["coefficients"])
        return rank(f) == witness["rank"] and witness["rank"] not in set(witness["declared"])
    if kind == "dim-mismatch":
        return M.dim == witness["actual_dim"] != witness["declared_dim"]
    if kind == "kind-mismatch":
        return M.kind == witness["actual_kind"] != witness["declared_kind"]
    if kind == "orthogonality":
        g = M.basis[witness["g_index"]]
        val = evaluate(g, witness["u"], witness["w"])
        return val == witness["value"] != 0
    if kind == "extension":
        h = GramForm(M.field, witness["extension_rows"])
        if M.contains_form(h):
            return False
        target = witness["rank"]
        for _, g in enumerate_nonzero(M):
            if rank(GramForm(M.field, M.field.add_arr(h.entries, g.entries))) != target:
                return False
        return rank(h) == target
    if kind == "radical-equality":
        (lc1, lc2) = witness["left_pair"]
        (rc1, rc2) = witness["right_pair"]
        lk = {left_radical(M.form_from_coefficients(c)).key() for c in (lc1, lc2)}
        rk = {right_radical(M.form_from_coefficients(c)).key() for c in (rc1, rc2)}
        return len(lk) == 2 and len(rk) == 2
    if kind == "spread-mismatch":
        if witness.get("actual_t") is None:
            return M.kind != KIND_ALTERNATING or len(_element_ranks(M)) != 1
        rads = {r.key(): r.rows for r in (left_radical(f) for _, f in enumerate_nonzero(M))}
        t, (covers, trivial) = len(rads), _spread_status(M.field, M.n, list(rads.values()))
        found = (t, covers, trivial) == (witness["actual_t"], witness["covers"], witness["pairwise_trivial"])
        return found and (t != witness["declared_t"] or not (covers and trivial))
    if kind == "radical-count-mismatch":
        actual = len({left_radical(f).key() for _, f in enumerate_nonzero(M)})
        return actual == witness["actual_radicals"] != witness["declared_radicals"]
    if kind == "dimension-bound":  # the limit and strictness are the report's; spectrum and dim are recounted
        over = M.dim >= witness["limit"] if witness["strict"] else M.dim > witness["limit"]
        return _element_ranks(M) == witness["spectrum"] and M.dim == witness["dim"] and over
    if kind == "kernel-bound":  # one kernel_at solve at u, and formcore ranks; the lemmas' gates are the report's
        K, lemma, d, n = kernel_at(M, witness["u"], witness["side"]), witness["lemma"], M.dim, M.n
        bounds = {"dim >= dim M - n": d - n, "alternating dim >= dim M - (n-1)": d - (n - 1)}
        if lemma in bounds:
            return K.dim == witness["dim_kernel"] < bounds[lemma]
        m, other = max(_element_ranks(M), default=0), right_radical if witness["side"] == "left" else left_radical
        rads = {other(f).key() for _, f in enumerate_nonzero(K) if rank(f) == m}  # of M_u's rank-m elements
        if lemma == "dim >= dim M - m":
            return bool(rads) and K.dim == witness["dim_kernel"] < d - m
        return K.dim == witness["dim_kernel"] == d - m and len(rads) == witness["distinct_radicals"] > 1
    if kind == "counting-identity":  # one kernel_at solve per nonzero u, not the stored kernel_dims_all
        q, d, n = M.field.q, M.dim, M.n
        rhs = sum(q ** kernel_at(M, u, "left").dim - 1 for u in linalg.code_vectors(q, n) if u.any())
        m = max(_element_ranks(M), default=0)
        return witness["lhs"] == (q**d - 1) * (q ** (n - m) - 1) != rhs == witness["rhs"]
    raise ValueError(f"unknown witness kind {kind!r}")


# ---------------------------------------------------------------------------
# Suite dispatch


# name -> checker, in suite order; the lambdas look each checker up by name
# at call time, so a rebinding of the module attribute reaches run_suite
_CHECKERS = {
    "declared": lambda M, budget, declared, *_: [check_declared(M, declared, budget)],
    "orthogonality": lambda M, budget, *_: [check_orthogonality(M, budget)],
    "counting": lambda M, budget, *_: [check_counting_identity(M, budget)],
    "kernel-bounds": lambda M, budget, *_: [check_kernel_bounds(M, budget)],
    "bounds": lambda M, budget, *_: check_dimension_bounds(M, budget),
    "spread": lambda M, budget, *_: [check_spread(M, budget)],
    "radical-equality": lambda M, budget, *_: [check_radical_equality(M, budget)],
    "isotropic-partition": lambda M, budget, *_: [check_isotropic_partition(M, budget)],
    "witt-census": lambda M, budget, *_: [check_witt_census_identity(M, budget)],
    "filtration": lambda M, budget, *_: [check_filtration(M, budget)],
    "maximality": lambda M, budget, declared, seed, trials: [check_maximality(M, budget, declared, seed, trials)],
}
SUITE_NAMES = tuple(_CHECKERS)


def select_suite(selection=None) -> tuple:
    """The checker names a selection asks for (all by default); an unknown name is a ValueError."""
    selected = tuple(selection) if selection is not None else SUITE_NAMES
    unknown = set(selected) - set(SUITE_NAMES)
    if unknown:
        raise ValueError(f"unknown suite selection: {sorted(unknown)}")
    return selected


def run_suite(
    M: FormSubspace,
    selection=None,
    budget: Optional[int] = None,
    declared: Optional[dict] = None,
    seed: Optional[int] = None,
    trials: Optional[int] = None,
) -> list[VerificationReport]:
    """Dispatch the selected checkers (all by default) and collect reports; `seed` and `trials` go to maximality."""
    selected = select_suite(selection)
    out: list[VerificationReport] = []
    for name in SUITE_NAMES:
        if name in selected:
            out.extend(_CHECKERS[name](M, budget, declared, seed, trials))
    return out
