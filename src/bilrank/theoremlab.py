"""Hypothesis-gated checkers for the quantitative theorems.

Every checker evaluates its theorem's hypotheses on the concrete input
and only asserts the conclusion when all of them hold; otherwise the
verdict is "not-applicable" and the conclusion's truth value is still
computed and recorded as informational, because the boundary cases are
exactly where tightness shows.  A "violated" verdict always carries a
witness that can be replayed through formcore, bit for bit.

Floor/ceiling boundaries are implemented exactly as each theorem states
them; constant rank is always re-derived from the spectrum, never read
off metadata.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import linalg
from .formcore import GramForm, evaluate, left_radical, rank, right_radical, witt_census
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
    kernel_at,  # unused here; perfbench/test_perfbench.py traces it under this name
    kernel_dims_all,
    kernel_matrices,
    line_representatives,
    line_table,
    lines,
    max_rank_incidence,
    null_spaces,
    partition_status,
    radical_spread,
    rank_spectrum,
    scan_blocks,
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


# ---------------------------------------------------------------------------
# Orthogonality: radical pairs of maximal-rank elements annihilate all of M


def check_orthogonality(M: FormSubspace, budget: Optional[int] = None) -> VerificationReport:
    """g(u, w) = 0 for u, w in the radicals of any maximal-rank element.

    The full radical-pair scan factors exactly through radical bases:
    g restricted to rad_L f x rad_R f is the matrix U G W^T, and that
    being zero is equivalent to g vanishing on every point pair.
    """
    tid = "orthogonality"
    try:
        spec = rank_spectrum(M, budget)
        m = spec.m
        fld = M.field
        hyps = _shared(M, spec, "field size")
        keys = np.zeros(0, dtype=np.int64)  # the (rad_L, rad_R) id pair of each rank-m line
        if m:  # the zero subspace has no lines
            coeffs, ranks, left, right = lines(M, budget)
            at = np.flatnonzero(ranks == m)
            keys = left.ids[at] * len(right.spaces) + right.ids[at]
        checked_elements, violation = len(keys), None
        firsts = np.sort(np.unique(keys, return_index=True)[1])
        pairs = keys[firsts]  # the distinct pairs, in order of first appearance
        k = M.n - m  # both radicals of a rank-m form have dim n - m
        basis = M.basis_flat().reshape(-1, M.n, M.n)
        per = max(1, _BLOCK // max(1, M.dim * k * M.n))
        for start in range(0, len(pairs) if k else 0, per):
            block = pairs[start:start + per]
            us = np.stack([left.spaces[i].rows for i in block // len(right.spaces)])
            ws = np.stack([right.spaces[i].rows for i in block % len(right.spaces)])
            # U G W^T for every pair and every basis form G at once: (pairs, d, k, k)
            vals = fld.matmul_arr(fld.matmul_arr(us[:, None], basis[None]), ws.transpose(0, 2, 1)[:, None])
            bad = np.flatnonzero(vals.reshape(len(block), -1).any(axis=1))
            if len(bad):
                b = int(bad[0])
                gi, i, j = (int(v) for v in np.argwhere(vals[b] != 0)[0])
                violation = {
                    "kind": "orthogonality",
                    "f_coefficients": [int(c) for c in coeffs[at[firsts[start + b]]]],
                    "u": [int(v) for v in us[b, i]],
                    "w": [int(v) for v in ws[b, j]],
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
    except BudgetExceeded as exc:
        return _budget_report(tid, exc)


# ---------------------------------------------------------------------------
# The double-count identity (q^d - 1)(q^(n-m) - 1) = sum over u of (q^d(u) - 1)


def check_counting_identity(M: FormSubspace, budget: Optional[int] = None) -> VerificationReport:
    tid = "counting-identity"
    try:
        spec = rank_spectrum(M, budget)
        hyps = _shared(M, spec, "constant rank")
        q, d, n, m = M.field.q, M.dim, M.n, spec.m
        dims = kernel_dims_all(M, "left", budget)
        hist = np.bincount(dims[1:], minlength=d + 1) if q**n > 1 else np.zeros(d + 1, dtype=np.int64)
        rhs = sum(int(c) * (q**k - 1) for k, c in enumerate(hist))
        lhs = (q**d - 1) * (q ** (n - m) - 1)
        witness = {
            "kind": "counting-identity",
            "lhs": lhs,
            "rhs": rhs,
            "kernel_dim_histogram": {str(k): int(c) for k, c in enumerate(hist) if c},
        }
        return _finish(tid, hyps, lhs == rhs, witness, {"lhs": lhs, "rhs": rhs})
    except BudgetExceeded as exc:
        return _budget_report(tid, exc)


# ---------------------------------------------------------------------------
# Kernel dimension lower bounds and their alternating refinement


def check_kernel_bounds(M: FormSubspace, budget: Optional[int] = None) -> VerificationReport:
    """dim M_u >= dim M - n for all u; >= dim M - m when M_u holds a
    maximal-rank element and q >= m+1 (with the shared-radical equality
    case); >= dim M - (n-1) for alternating M."""
    tid = "kernel-bounds"
    try:
        spec = rank_spectrum(M, budget)
        q, d, n, m = M.field.q, M.dim, M.n, spec.m
        alternating = M.kind == KIND_ALTERNATING
        charge(q**n, max(d * n, 1), budget, tid)
        sides = ("left", "right")
        dims = np.stack([kernel_dims_all(M, side, budget) for side in sides], axis=1)  # (q^n, 2)
        holds = shared = np.zeros_like(dims, dtype=bool)
        if m and q >= m + 1:  # the zero subspace has no lines to look at
            incidence = [max_rank_incidence(M, side, budget) for side in sides]
            holds = np.stack([h for h, _ in incidence], axis=1)
            shared = np.stack([s for _, s in incidence], axis=1)
        # (lemma, bound, where it fails), in the order each (u, side) is tested
        lemmas = (
            ("dim >= dim M - n", d - n, dims < d - n),
            ("alternating dim >= dim M - (n-1)", d - (n - 1), alternating & (dims < d - (n - 1))),
            ("dim >= dim M - m", d - m, holds & (dims < d - m)),
            ("equality case: shared radical", None, holds & (dims == d - m) & ~shared),
        )
        vecs = linalg.code_vectors(q, n)
        # M_{cu} = M_u, so one representative per line is exhaustive
        failing = np.argwhere(line_representatives(q, n)[:, None] & np.logical_or.reduce([f for _, _, f in lemmas]))
        violation = None
        if len(failing):
            idx, s = (int(v) for v in failing[0])
            lemma, bound = next((lem, b) for lem, b, f in lemmas if f[idx, s])
            violation = {"kind": "kernel-bound", "u": [int(v) for v in vecs[idx]], "side": sides[s],
                         "dim_kernel": int(dims[idx, s]), "lemma": lemma}
            if bound is None:
                violation["distinct_radicals"] = _distinct_radicals(M, vecs[idx], sides[s], m, budget)
            else:
                violation["bound"] = bound
        return _finish(tid, [], violation is None, violation, {"max_rank": m})
    except BudgetExceeded as exc:
        return _budget_report(tid, exc)


def _distinct_radicals(M: FormSubspace, u, side: str, m: int, budget) -> int:
    """Distinct other-side radicals over the rank-m elements of M_u."""
    _, ranks, left, right = lines(M, budget)
    own, other = (left, right) if side == "left" else (right, left)
    holds_u = np.array([rad.contains(u) for rad in own.spaces], dtype=bool)  # one test per distinct radical
    return len(np.unique(other.ids[(ranks == m) & holds_u[own.ids]]))


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
        # every rad_L f has dim n - m and holds the basis' common left radical: all equal iff it has too
        all_equal = len(linalg.left_null_space(M.field, np.hstack([f.entries for f in M.basis]))) == n - m
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


def check_spread(M: FormSubspace, budget: Optional[int] = None) -> VerificationReport:
    tid = "spread"
    try:
        spec = rank_spectrum(M, budget)
        q, n, m = M.field.q, M.n, spec.m
        hyps = _shared(M, spec, "alternating", "constant rank", "full dimension", "field size")
        if M.kind != KIND_ALTERNATING or not spec.is_constant_rank:
            return _finish(tid, hyps, False, None,
                           {"note": "radical census undefined without alternating constant rank"})
        report = radical_spread(M, budget)
        expected_t = (q**n - 1) // (q ** (n - m) - 1) if m < n else 1
        divides = True if m == n else n % (n - m) == 0
        # the induced partition of M itself: M_i = {g : R_i <= rad g}
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
            "radical_dims": sorted({rad.dim for rad in report.radicals}),
            "induced_dims": sorted(set(induced_sizes)),
        }
        return _finish(tid, hyps, ok, witness, details)
    except BudgetExceeded as exc:
        return _budget_report(tid, exc)


# ---------------------------------------------------------------------------
# Equality of left or of right radicals at maximal dimension


def check_radical_equality(M: FormSubspace, budget: Optional[int] = None) -> VerificationReport:
    tid = "radical-equality"
    try:
        spec = rank_spectrum(M, budget)
        n, m = M.n, spec.m
        hyps = _shared(M, spec, "full dimension", "constant rank", "field size") + [
            _hyp("dimension gap", f"n >= 2m+1 = {2 * m + 1}", f"n = {n}", n >= 2 * m + 1)
        ]
        if M.dim == 0:
            return _finish(tid, hyps, True, None, {"note": "zero subspace"})
        coeffs, _, left, right = lines(M, budget)
        ok = len(left.spaces) == 1 or len(right.spaces) == 1
        witness = {
            "kind": "radical-equality",
            "left_pair": coeffs[left.first[:2]].tolist(),
            "right_pair": coeffs[right.first[:2]].tolist(),
        }
        return _finish(tid, hyps, ok, witness,
                       {"distinct_left_radicals": len(left.spaces), "distinct_right_radicals": len(right.spaces)})
    except BudgetExceeded as exc:
        return _budget_report(tid, exc)


# ---------------------------------------------------------------------------
# The isotropic partition and its counting identities


def check_isotropic_partition(M: FormSubspace, budget: Optional[int] = None) -> VerificationReport:
    tid = "isotropic-partition"
    try:
        spec = rank_spectrum(M, budget)
        q, n, d, m = M.field.q, M.n, M.dim, spec.m
        hyps = _shared(M, spec, "symmetric", "odd characteristic", "constant rank", "full dimension", "field size")
        if not M.symmetric or q % 2 == 0:
            return _finish(tid, hyps, False, None, {"note": "isotropic set undefined here"})
        iso = isotropic_set(M, budget)
        iso_at = linalg.code_index(q, np.array(iso.vectors, dtype=np.int64).reshape(-1, n))
        # A_u is the null space of the rows u^T G_i: one system per isotropic u
        classes = null_spaces(M.field, kernel_matrices(M, iso.vectors, "left").transpose(0, 2, 1))
        r_classes = len(classes.spaces)
        pairwise_trivial, union = partition_status(M.field, classes.spaces)
        partition_ok = pairwise_trivial and np.array_equal(union, iso_at)
        lhs = sum((q**sub.dim - 1) ** 2 for sub in classes.spaces)
        rhs = (q**n - 1) * (q ** (n - m) - 1)
        sum_ok = lhs == rhs
        r_ok = r_classes != 1 and (m >= n or r_classes >= 2)
        dim_match = True
        if d == n:
            class_dims = np.array([sub.dim for sub in classes.spaces], dtype=np.int64)
            dim_match = bool((kernel_dims_all(M, "left", budget)[iso_at] == class_dims[classes.ids]).all())
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
            "isotropic_nonzero": len(iso.vectors),
            "classes": r_classes,
            "class_dims": sorted({sub.dim for sub in classes.spaces}),
            "squared_sum_lhs": lhs,
            "squared_sum_rhs": rhs,
        }
        return _finish(tid, hyps, ok, witness, details)
    except BudgetExceeded as exc:
        return _budget_report(tid, exc)


def check_witt_census_identity(M: FormSubspace, budget: Optional[int] = None) -> VerificationReport:
    """|I(M)^x| = (A - B) q^{-k} with A + B = q^n - 1 over the Witt census."""
    tid = "witt-census"
    try:
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
        flats = flat_forms_for(M, line_table(M, budget, tid)[0])
        witt = Counter(witt_census(GramForm(M.field, g)).witt_index for g in flats.reshape(-1, n, n))
        a_count, b_count = (q - 1) * witt[k], (q - 1) * witt[k - 1]
        iso = isotropic_set(M, budget)
        total_ok = a_count + b_count == q**d - 1
        diff = a_count - b_count
        identity_ok = diff % (q**k) == 0 and diff // (q**k) == len(iso.vectors)
        details = {"A": a_count, "B": b_count, "isotropic_nonzero": len(iso.vectors)}
        return _finish(tid, hyps, total_ok and identity_ok, {"kind": "witt-census", **details, "q^k": q**k}, details)
    except BudgetExceeded as exc:
        return _budget_report(tid, exc)


# ---------------------------------------------------------------------------
# Maximality of the embedded trace family


def check_maximality(
    M: FormSubspace,
    budget: Optional[int] = None,
    declared: Optional[dict] = None,
    seed: Optional[int] = None,
    trials: int = 1000,
) -> VerificationReport:
    """Is M maximal among constant rank m subspaces of its kind space?

    Exhaustive when the ambient kind space fits the budget, otherwise a
    seeded sample of candidate extensions.  A found extension is
    conclusive either way and becomes the witness; a clean exhaustive
    scan certifies maximality.
    """
    tid = "maximality"
    try:
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
            blocks = (cands for _, cands in scan_blocks(ambient, budget, what=tid))
        else:
            rng = np.random.default_rng(seed)
            combos = [rng.integers(0, q, size=dk, dtype=np.int64) for _ in range(trials)]
            combos = np.array([c for c in combos if c.any()], dtype=np.int64).reshape(-1, dk)
            blocks = [fld.matmul_arr(combos, ambient.basis_flat())]
        per_call = max(1, 8192 // len(stack))  # candidates per batch_rank call
        extension = None
        tried = 0
        for cands in (b[i:i + per_call] for b in blocks for i in range(0, len(b), per_call)):
            sums = fld.add_arr(cands[:, None, :], stack[None, :, :]).reshape(-1, n, n)
            extends = (linalg.batch_rank(fld, sums).reshape(len(cands), -1) == m).all(axis=1)
            if extends.any():
                first = int(np.argmax(extends))
                extension, tried = cands[first], tried + first + 1
                break
            tried += len(cands)

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
    except BudgetExceeded as exc:
        return _budget_report(tid, exc)


# ---------------------------------------------------------------------------
# The filtration of a subspace meeting the rn bound


def check_filtration(M: FormSubspace, budget: Optional[int] = None) -> VerificationReport:
    """Extract the chain M_s (dim sn, s smallest ranks) by the proof's recipe."""
    tid = "filtration"
    try:
        spec = rank_spectrum(M, budget)
        q, n, d, m = M.field.q, M.n, M.dim, spec.m
        r = spec.r
        hyps = [
            _hyp("dimension", f"dim M = rn = {r * n}", f"dim M = {d}", d == r * n),
            _hyp("rank range", f"m <= ceil(n/2) = {(n + 1) // 2}", f"m = {m}", m <= (n + 1) // 2),
        ] + _shared(M, spec, "field size")
        chain = [(M, spec)]
        failed_at = None
        current, cur_spec = M, spec
        lead_one = linalg.code_vectors(q, n)[line_representatives(q, n)]
        while cur_spec.r > 1:
            # M_u of every lead-1 u, left then right for each u, in the proof's order
            mats = np.stack([kernel_matrices(current, lead_one, side) for side in ("left", "right")], axis=1)
            # distinct M_u in order of first appearance: the first to pass is the first u's that passes
            for coeffs in null_spaces(M.field, mats.reshape(-1, n, current.dim)).spaces:
                if coeffs.dim == (cur_spec.r - 1) * n:
                    K = current.subspace_from_coefficients(coeffs.rows)
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
    except BudgetExceeded as exc:
        return _budget_report(tid, exc)


# ---------------------------------------------------------------------------
# Declared-claims consistency (the injectable checker)


def check_declared(M: FormSubspace, declared: Optional[dict], budget: Optional[int] = None) -> VerificationReport:
    """Re-derive everything a fixture file claims about itself.

    True theorems cannot be violated by honest computation, so this is
    where corrupted fixtures fail: any mismatch between a declared
    dimension, kind or spectrum and the re-derived truth is a violation
    with a replayable witness.
    """
    tid = "declared-claims"
    try:
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
        ok = not problems
        return _finish(tid, hyps, ok, witness, {"mismatches": problems})
    except BudgetExceeded as exc:
        return _budget_report(tid, exc)


def _spectrum_witness(M: FormSubspace, declared_ranks, budget) -> dict:
    """First element whose rank falls outside the declared spectrum.

    A line's lead-1 element comes first among its elements in the walk
    order (1 is the smallest nonzero code), so the first stray line of
    the table holds the first stray element.
    """
    allowed = sorted(set(declared_ranks))
    coeffs, ranks = line_table(M, budget, "spectrum witness")
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


def replay_witness(M: FormSubspace, witness: dict) -> bool:
    """Re-run a violation witness through formcore; True iff it reproduces."""
    kind = witness.get("kind")
    if kind == "spectrum-mismatch":
        if witness.get("coefficients") is None:
            return rank_spectrum(M).ranks != tuple(witness["declared"])
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
            return not rank_spectrum(M).is_constant_rank or M.kind != KIND_ALTERNATING
        return radical_spread(M).t == witness["actual_t"] != witness["declared_t"]
    if kind == "counting-identity":
        rep = check_counting_identity(M)
        return rep.details["lhs"] == witness["lhs"] and rep.details["rhs"] == witness["rhs"]
    raise ValueError(f"unknown witness kind {kind!r}")


# ---------------------------------------------------------------------------
# Suite dispatch


# name -> checker, in suite order; the lambdas look each checker up by name
# at call time, so a rebinding of the module attribute reaches run_suite
_CHECKERS = {
    "declared": lambda M, budget, declared, seed: [check_declared(M, declared, budget)],
    "orthogonality": lambda M, budget, *_: [check_orthogonality(M, budget)],
    "counting": lambda M, budget, *_: [check_counting_identity(M, budget)],
    "kernel-bounds": lambda M, budget, *_: [check_kernel_bounds(M, budget)],
    "bounds": lambda M, budget, *_: check_dimension_bounds(M, budget),
    "spread": lambda M, budget, *_: [check_spread(M, budget)],
    "radical-equality": lambda M, budget, *_: [check_radical_equality(M, budget)],
    "isotropic-partition": lambda M, budget, *_: [check_isotropic_partition(M, budget)],
    "witt-census": lambda M, budget, *_: [check_witt_census_identity(M, budget)],
    "filtration": lambda M, budget, *_: [check_filtration(M, budget)],
    "maximality": lambda M, budget, declared, seed: [check_maximality(M, budget, declared, seed)],
}
SUITE_NAMES = tuple(_CHECKERS)


def run_suite(
    M: FormSubspace,
    selection=None,
    budget: Optional[int] = None,
    declared: Optional[dict] = None,
    seed: Optional[int] = None,
) -> list[VerificationReport]:
    """Dispatch the selected checkers (all by default) and collect reports."""
    selected = tuple(selection) if selection is not None else SUITE_NAMES
    unknown = set(selected) - set(SUITE_NAMES)
    if unknown:
        raise ValueError(f"unknown suite selection: {sorted(unknown)}")
    out: list[VerificationReport] = []
    for name in SUITE_NAMES:
        if name in selected:
            out.extend(_CHECKERS[name](M, budget, declared, seed))
    return out
