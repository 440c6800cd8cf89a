"""Checker gating, verdicts, witnesses and replay."""

import dataclasses
import itertools
import os
from collections import Counter

import numpy as np
import pytest
from oracles import brute_annihilator, contains, identity_form, is_square, meet_dim, points, witt_census, zero_form

from bilrank import constructions as cons
from bilrank import fileio
from bilrank import formcore as fc
from bilrank import linalg
from bilrank import spanspace as sp
from bilrank import theoremlab as tl
from bilrank.gf import field_for_order

F2 = field_for_order(2)
F3 = field_for_order(3)
F4 = field_for_order(4)
F5 = field_for_order(5)
FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def report_map(reports):
    return {r.theorem_id: r for r in reports}


# --- orthogonality ---------------------------------------------------------------


def test_orthogonality_holds_on_catalogue(constant_rank_catalogue):
    for req, M, _ in constant_rank_catalogue:
        spec = sp.rank_spectrum(M)
        if M.field.q >= spec.m + 1:
            rep = tl.check_orthogonality(M)
            assert rep.verdict == tl.HOLDS, (req, rep.witness)


def test_orthogonality_single_form_is_trivial():
    rep = tl.check_orthogonality(sp.span([fc.GramForm(F3, [[0, 1], [2, 0]])]))
    assert rep.verdict == tl.HOLDS


def test_orthogonality_small_field_probe_is_informational():
    # q = 2 < m+1 = 3 on a rank-2 instance: gated out, still evaluated
    M = sp.full_kind_space(F2, 3, "alternating")
    rep = tl.check_orthogonality(M)
    assert rep.verdict == tl.NOT_APPLICABLE
    assert "conclusion_holds" in rep.details["informational"]


def test_orthogonality_covers_all_radical_pairs():
    M = sp.full_kind_space(F3, 3, "alternating")
    rep = tl.check_orthogonality(M)
    # 13 projective lines of forms, all rank 2, each a distinct radical pair
    assert rep.details["max_rank_lines_checked"] == 13
    assert rep.details["distinct_radical_pairs"] == 13
    # literal point-pair cross-check of the factored computation
    for _, f in sp.enumerate_nonzero(M):
        if fc.rank(f) != 2:
            continue
        for u in points(fc.left_radical(f)):
            for w in points(fc.right_radical(f)):
                for g in M.basis:
                    assert fc.evaluate(g, u, w) == 0


# (n, d, kind, seed) of random GF(2) subspaces, and the orthogonality counts at the first
# violating radical pair: (rank-m lines checked, distinct pairs, pair points) of all rank-m lines
ORTHOGONALITY_STOPS = {
    (4, 4, "general", 3): (5, 5, 20, 11),
    (4, 3, "general", 0): (2, 2, 8, 5),
    (5, 3, "symmetric", 23): (3, 3, 12, 7),
    (4, 2, "symmetric", 5): (2, 2, 8, 3),
}


@pytest.mark.parametrize("block", [1, sp._BLOCK])
@pytest.mark.parametrize("draw", list(ORTHOGONALITY_STOPS))
def test_orthogonality_stops_at_first_violating_pair(draw, block, monkeypatch):
    """The counts stop at the first violating pair; the witness replays and comes from that pair."""
    monkeypatch.setattr(tl, "_BLOCK", block)  # 1 checks one radical pair per block
    n, d, kind, seed = draw
    M = sp.random_subspace(F2, n, d, kind, seed)
    rep = tl.check_orthogonality(M)
    checked, pairs, points, total = ORTHOGONALITY_STOPS[draw]
    m = rep.details["max_rank"]
    assert (rep.details["max_rank_lines_checked"], rep.details["distinct_radical_pairs"],
            rep.details["radical_pair_points_covered"]) == (checked, pairs, points)
    # the line-by-line reference: the checked lines and their radical pairs, in table order
    coeffs, ranks, _, _ = sp.lines(M)
    top = [c for c, rk in zip(coeffs.tolist(), ranks.tolist()) if rk == m]
    assert len(top) == total
    info = rep.details["informational"]
    assert not info["conclusion_holds"]
    witness = info["witness"]
    assert witness["f_coefficients"] == top[checked - 1]
    f = M.form_from_coefficients(witness["f_coefficients"])
    seen = {(fc.left_radical(M.form_from_coefficients(c)).key(), fc.right_radical(M.form_from_coefficients(c)).key())
            for c in top[:checked]}
    assert len(seen) == pairs
    assert contains(fc.left_radical(f), witness["u"]) and contains(fc.right_radical(f), witness["w"])
    assert tl.replay_witness(M, witness)


# --- counting identity ----------------------------------------------------------


def test_counting_identity_alt32():
    rep = tl.check_counting_identity(sp.full_kind_space(F2, 3, "alternating"))
    assert rep.verdict == tl.HOLDS
    assert rep.details["lhs"] == 7 == rep.details["rhs"]


def test_counting_identity_single_invertible_form():
    rep = tl.check_counting_identity(sp.span([identity_form(F5, 2)]))
    assert rep.verdict == tl.HOLDS
    assert rep.details["lhs"] == 0 == rep.details["rhs"]


def test_counting_identity_on_catalogue(constant_rank_catalogue):
    for req, M, _ in constant_rank_catalogue:
        rep = tl.check_counting_identity(M)
        assert rep.verdict == tl.HOLDS, req


def test_counting_identity_gates_on_constant_rank():
    M = cons.block_symmetric(F3, 4, 2)  # spectrum {2, 4}
    rep = tl.check_counting_identity(M)
    assert rep.verdict == tl.NOT_APPLICABLE


def test_counting_identity_replay_solves_each_u(monkeypatch):
    """A witness made from corrupted stored M_u dimensions does not replay: the replay solves each u by kernel_at."""
    M = sp.full_kind_space(F3, 3, "alternating")  # constant rank 2: every nonzero u has dim M_u = 1
    real = sp.kernel_dims_all

    def one_off(M, side, budget=None):
        dims = real(M, side, budget).copy()
        dims[0] += 1  # the line of (0, 0, 1)
        return dims

    monkeypatch.setattr(tl, "kernel_dims_all", one_off)
    rep = tl.check_counting_identity(M)
    assert rep.verdict == tl.VIOLATED
    assert (rep.witness["lhs"], rep.witness["rhs"]) == (52, 24 * (3 - 1) + 2 * (3**2 - 1))
    assert not tl.replay_witness(M, rep.witness)
    assert not tl.replay_witness(M, {**rep.witness, "rhs": 52})  # lhs = rhs is no violation


def test_counting_identity_informational_witness_replays():
    M = cons.block_symmetric(F3, 4, 2)  # spectrum {2, 4}: not constant rank, and the identity fails
    rep = tl.check_counting_identity(M)
    assert rep.verdict == tl.NOT_APPLICABLE
    witness = rep.details["informational"]["witness"]
    assert witness["lhs"] != witness["rhs"]
    assert tl.replay_witness(M, witness)
    assert not tl.replay_witness(M, {**witness, "rhs": witness["rhs"] + 1})
    assert not tl.replay_witness(M, {**witness, "lhs": witness["lhs"] + 1})


# --- kernel bounds ----------------------------------------------------------------


def test_kernel_bounds_on_catalogue(catalogue):
    for req, M, _ in catalogue:
        if M.field.q**M.n > 3000:
            continue  # the acceptance suite covers the big ones
        rep = tl.check_kernel_bounds(M)
        assert rep.verdict == tl.HOLDS, req


def test_kernel_bounds_equality_witness(monkeypatch):
    # honest inputs never fail, so let the incidence deny every shared radical:
    # in Alt(V), n = 3, every M_u (u != 0) is one line of rank-2 forms with radical <u>
    M = sp.full_kind_space(F3, 3, "alternating")
    real = sp.max_rank_incidence

    def unshared(M, side, budget=None):
        holds, shared = real(M, side, budget)
        return holds, np.zeros_like(shared)

    monkeypatch.setattr(tl, "max_rank_incidence", unshared)
    rep = tl.check_kernel_bounds(M)
    assert rep.verdict == tl.VIOLATED
    assert sp.kernel_at(M, (0, 0, 1), "left").dim == 1
    assert rep.witness == {"kind": "kernel-bound", "u": [0, 0, 1], "side": "left", "dim_kernel": 1,
                           "lemma": "equality case: shared radical", "distinct_radicals": 1}
    assert not tl.replay_witness(M, rep.witness)  # the per-vector oracle finds one radical, so no violation


def test_kernel_bound_witness_replays_through_kernel_at():
    """A hand-built witness replays when its dim is kernel_at's and the named bound fails at it, and not otherwise."""
    # Bil(V), n = 2, q = 2: every nonzero u has dim M_u = 2, under the alternating bound dim M - (n-1) = 3,
    # whose alternating gate the report applies, not the replay
    M = sp.full_kind_space(F2, 2, "general")
    assert sp.kernel_at(M, (0, 1), "left").dim == sp.kernel_at(M, (1, 1), "right").dim == 2
    witness = {"kind": "kernel-bound", "u": [0, 1], "side": "left", "dim_kernel": 2,
               "lemma": "alternating dim >= dim M - (n-1)", "bound": 3}
    assert tl.replay_witness(M, witness)
    assert tl.replay_witness(M, {**witness, "u": [1, 1], "side": "right"})
    assert not tl.replay_witness(M, {**witness, "dim_kernel": 1})  # a wrong dim
    assert not tl.replay_witness(M, {**witness, "u": [0, 0]})  # M_0 = M has dim 4
    assert not tl.replay_witness(M, {**witness, "lemma": "dim >= dim M - n", "bound": 2})  # 2 >= 4 - 2 holds
    # the lemmas on rank-m elements: M_u holds only rank-1 forms, under m = 2
    for lemma in ("dim >= dim M - m", "equality case: shared radical"):
        assert not tl.replay_witness(M, {**witness, "lemma": lemma, "distinct_radicals": 2})


def test_distinct_radicals_match_per_line_radicals(catalogue):
    """The stacked containment test of every distinct radical against formcore radicals, line by line."""
    members = [M for _, M, _ in catalogue if M.field.q**M.n <= 64 and M.field.q**M.dim <= 64]
    members += [sp.random_subspace(F3, 3, d, kind, seed) for d in (2, 3) for kind in sp.KINDS for seed in (1, 2)]
    seen = Counter()
    for M in members:
        coeffs, ranks, _, _ = sp.lines(M)
        m = int(ranks.max(initial=0))
        forms = [M.form_from_coefficients(c) for c in coeffs[ranks == m].tolist()]
        for side in ("left", "right"):
            own, other = (fc.left_radical, fc.right_radical)[:: 1 if side == "left" else -1]
            rads = [(own(f), other(f).key()) for f in forms]
            for u in linalg.code_vectors(M.field.q, M.n):
                want = len({key for rad, key in rads if contains(rad, u)})
                assert tl._distinct_radicals(M, u, side, m, None) == want, (M, u.tolist(), side)
                seen[min(want, 2)] += 1
    assert set(seen) == {0, 1, 2}


# --- dimension bounds ---------------------------------------------------------------


def test_bounds_block_symmetric_example():
    M = cons.block_symmetric(F5, 4, 2)
    reports = report_map(tl.check_dimension_bounds(M))
    rep = reports["bound-symmetric-rn"]
    assert rep.verdict == tl.HOLDS
    assert rep.details["dim"] == 4 and rep.details["limit"] == 7


def test_bounds_alt_full_meets_alternating_max_with_equality():
    M = sp.full_kind_space(F3, 3, "alternating")
    reports = report_map(tl.check_dimension_bounds(M))
    rep = reports["bound-alternating-max"]
    assert rep.verdict == tl.HOLDS
    assert rep.details["dim"] == 3 == rep.details["limit"]


def test_bounds_two_ranks_instance():
    M = cons.bilinear_column_family(F2, 2, 2)  # n = 2, spectrum {1, 2}
    reports = report_map(tl.check_dimension_bounds(M))
    rep = reports["bound-two-ranks-2n"]
    assert rep.verdict == tl.HOLDS
    assert rep.details["dim"] == 4 == rep.details["limit"]


def test_bounds_common_radical_half_m():
    # alternating constant rank 2 on a 2-space, radical 0 everywhere:
    # dim M <= m/2 = 1 with the common radical hypothesis satisfied
    M = sp.full_kind_space(F5, 2, "alternating")
    reports = report_map(tl.check_dimension_bounds(M))
    rep = reports["bound-common-radical-half-m"]
    assert rep.verdict == tl.HOLDS
    assert rep.details["dim"] == 1 == rep.details["limit"]


def test_bounds_fuzz_zero_violations():
    rng = np.random.default_rng(123)
    for _ in range(60):
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 5))
        kind = str(rng.choice(list(sp.KINDS)))
        dmax = max(1, min(sp.kind_space_dim(n, kind), 3))
        d = int(rng.integers(1, dmax + 1))
        M = sp.random_subspace(field_for_order(q), n, d, kind, int(rng.integers(1 << 30)))
        for rep in tl.check_dimension_bounds(M):
            assert rep.verdict != tl.VIOLATED, (q, n, kind, rep.theorem_id, rep.witness)


def test_common_radical_hypothesis_matches_radical_census(constant_rank_catalogue):
    """The basis' common left radical test against the distinct left radicals of every line."""
    members = [M for _, M, _ in constant_rank_catalogue if M.kind == sp.KIND_ALTERNATING]
    rng = np.random.default_rng(11)
    for _ in range(60):
        q, n = int(rng.choice([2, 3, 5])), int(rng.integers(2, 6))
        d = int(rng.integers(1, min(sp.kind_space_dim(n, "alternating"), 3) + 1))
        members.append(sp.random_subspace(field_for_order(q), n, d, "alternating", int(rng.integers(1 << 30))))
    outcomes = set()
    for M in members:
        if not sp.rank_spectrum(M).is_constant_rank:
            continue
        rep = report_map(tl.check_dimension_bounds(M))["bound-common-radical-half-m"]
        hyp = next(h for h in rep.hypotheses if h.name == "common radical")
        want = len(sp.lines(M)[2].dims) <= 1
        assert hyp.satisfied == want, M
        outcomes.add(want)
    assert outcomes == {True, False}


# --- spread ----------------------------------------------------------------------------


def test_spread_alt33():
    rep = tl.check_spread(sp.full_kind_space(F3, 3, "alternating"))
    assert rep.verdict == tl.HOLDS
    assert rep.details["t"] == 13 == rep.details["expected_t"]


def test_spread_compressed_odd_family_q2_gated_but_true():
    # q = 2 < m+1 = 5 gates the theorem out, yet this construction still
    # carries the full spread: informational conclusion true, t = 21
    M, _ = cons.build(cons.ConstructionRequest("alt-odd", {"q": 2, "k": 3, "ext": 2}))
    rep = tl.check_spread(M)
    assert rep.verdict == tl.NOT_APPLICABLE
    assert rep.details["informational"]["conclusion_holds"] is True
    assert rep.details["t"] == 21 == rep.details["expected_t"]
    assert rep.details["induced_dims"] == [2]


def test_spread_compressed_odd_family_q5_hypotheses_satisfied():
    # over GF(5) the same construction satisfies q >= m+1 and n = dim M
    M, _ = cons.build(cons.ConstructionRequest("alt-odd", {"q": 5, "k": 3, "ext": 2}))
    rep = tl.check_spread(M)
    assert rep.verdict == tl.HOLDS
    assert rep.details["t"] == (5**6 - 1) // (5**2 - 1) == 651


def test_spread_gates_on_constant_rank():
    M = sp.full_kind_space(F2, 4, "alternating")  # spectrum {2, 4}
    rep = tl.check_spread(M)
    assert rep.verdict == tl.NOT_APPLICABLE


@pytest.mark.parametrize("budget", [400, 899])
def test_spread_charges_the_induced_partition(budget):
    """Its walk costs 400 steps; the induced M_i cost t k systems of n d cells, 15 * 3 * 5 * 4 = 900 more."""
    M, _ = cons.build(cons.ConstructionRequest("alt-pencil", {"q": 2, "n": 5}))
    rep = tl.check_spread(M, budget=budget)
    assert rep.verdict == tl.BUDGET_EXCEEDED
    assert rep.details["budget_error"] == f"spread needs 900 steps, budget is {budget}"
    assert tl.check_spread(M, budget=900).verdict == tl.NOT_APPLICABLE


# --- radical equality -------------------------------------------------------------------


def test_radical_equality_column_family():
    M, _ = cons.build(cons.ConstructionRequest("column-family", {"q": 3, "m": 3, "r": 1, "ext": 2}))
    rep = tl.check_radical_equality(M)
    assert rep.verdict == tl.HOLDS
    assert rep.details["distinct_right_radicals"] == 1
    assert rep.details["distinct_left_radicals"] > 1


def test_radical_equality_alt33_gated_and_false():
    # n = 3 < 2m+1 = 5: not applicable, and the conclusion is indeed false
    rep = tl.check_radical_equality(sp.full_kind_space(F3, 3, "alternating"))
    assert rep.verdict == tl.NOT_APPLICABLE
    assert rep.details["informational"]["conclusion_holds"] is False


# --- isotropic partition / witt census ----------------------------------------------------


def test_isotropic_partition_gated_out_for_small_rank():
    # m = 2 <= 2n/3 for n = 3 forces dim < n, so dim M = n cannot hold here
    M = cons.embed_with_radical(cons.symmetric_trace(F3, 2), 3)
    rep = tl.check_isotropic_partition(M)
    assert rep.verdict == tl.NOT_APPLICABLE


def test_isotropic_partition_applicable_at_m_equals_n():
    # symmetric_trace(GF(3), 2): dim M = n = 2 = m, q = 3 >= m+1, q odd
    M = cons.symmetric_trace(F3, 2)
    rep = tl.check_isotropic_partition(M)
    assert rep.verdict == tl.HOLDS
    assert rep.details["isotropic_nonzero"] == 0
    assert rep.details["squared_sum_lhs"] == 0 == rep.details["squared_sum_rhs"]


def test_isotropic_partition_charges_its_A_u_systems(monkeypatch):
    """One n x d system per isotropic line, d n cells each, under the checker's name."""
    M, _ = cons.build(cons.ConstructionRequest("block-symmetric", {"q": 3, "n": 4, "r": 1}))
    charged, real = [], tl.charge
    monkeypatch.setattr(tl, "charge", lambda items, cost, budget, what: (
        charged.append((items, cost, what)), real(items, cost, budget, what)))
    tl.check_isotropic_partition(M)
    lines_on_iso = int(sp.isotropic_set(M).sum())
    assert lines_on_iso == 14 and charged == [(lines_on_iso, M.dim * M.n, "isotropic-partition")]


def test_witt_census_identity_trace_family():
    M = cons.symmetric_trace(F3, 2)
    rep = tl.check_witt_census_identity(M)
    assert rep.verdict == tl.HOLDS
    # I(M)^x empty forces A = B, and A + B = q^n - 1 = 8
    assert rep.details["A"] == rep.details["B"] == 4


def test_witt_census_gated_path():
    M = cons.embed_with_radical(cons.symmetric_trace(F3, 2), 3)  # dim 2 != n = 3
    rep = tl.check_witt_census_identity(M)
    assert rep.verdict == tl.NOT_APPLICABLE


def test_witt_census_counts_match_per_element_census(catalogue):
    """A and B read off the line table against witt_census on every element."""
    checked = 0
    for req, M, _ in catalogue:
        rep = tl.check_witt_census_identity(M)
        if "A" not in rep.details:
            continue
        k = sp.rank_spectrum(M).m // 2
        witt = Counter(witt_census(f).witt_index for _, f in sp.enumerate_nonzero(M))
        assert (rep.details["A"], rep.details["B"]) == (witt[k], witt[k - 1]), req
        checked += 1
    assert checked


def _random_symmetric(F, n, r, rng, elliptic=None):
    """P^T D P for a random invertible P and D = diag(d_1..d_r, 0..0), all d_i != 0.

    With `elliptic` set, d_r is chosen so that the form is elliptic
    (True) or hyperbolic (False): (-1)^(r/2) d_1...d_r a non-square or a square.
    """
    while True:
        P = rng.integers(0, F.q, size=(n, n))
        if linalg.rank(F, P) == n:
            break
    d = rng.integers(1, F.q, size=r)
    if elliptic is not None:
        val = F.pow(F.neg(1), r // 2)
        for x in d[:-1]:
            val = F.mul(val, int(x))
        want_square = not elliptic
        d[-1] = next(x for x in range(1, F.q) if is_square(F, F.mul(val, x)) == want_square)
    D = np.zeros((n, n), dtype=np.int64)
    D[range(r), range(r)] = d
    return F.matmul_arr(F.matmul_arr(P.T, D), P)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25])
def test_witt_indices_match_witt_census_on_random_forms(q):
    F = field_for_order(q)
    rng = np.random.default_rng(q)
    for n in range(2, 6):
        for m in range(2, n + 1, 2):
            grams = np.array([_random_symmetric(F, n, m, rng) for _ in range(12)])
            want = []
            for g in grams:
                census = witt_census(fc.GramForm(F, g))
                assert census.rank == m
                want.append(census.witt_index)
            reduced = linalg.batch_rref(F, grams)[0]
            assert tl._witt_indices(F, grams, reduced, m).tolist() == want, (n, m)


@pytest.mark.parametrize("q, n, m", [(3, 4, 4), (5, 4, 4), (3, 6, 6), (3, 5, 4)])
def test_witt_census_on_lines_of_rank_4_and_6(q, n, m):
    """d = 1 spans: every catalogue member on the Witt path has m = 2, these cover m = 4 and 6."""
    F = field_for_order(q)
    rng = np.random.default_rng(q * n + m)
    for elliptic in (False, True):
        g = _random_symmetric(F, n, m, rng, elliptic)
        census = witt_census(fc.GramForm(F, g))
        assert census.witt_index == m // 2 - elliptic
        rep = tl.check_witt_census_identity(sp.span([fc.GramForm(F, g)]))
        A, B = (q - 1, 0) if census.witt_index == m // 2 else (0, q - 1)
        assert (rep.details["A"], rep.details["B"]) == (A, B)
        assert rep.details["isotropic_nonzero"] == census.isotropic_nonzero_count


# --- maximality ------------------------------------------------------------------------------


def test_maximality_trace_fixture_exhaustive():
    M, declared = cons.build(cons.ConstructionRequest("trace-symmetric", {"q": 3, "ext": 2, "n": 3}))
    rep = tl.check_maximality(M, declared=declared)
    assert rep.verdict == tl.HOLDS
    assert rep.details["mode"] == "exhaustive"
    assert rep.details["candidates_tried"] == 3**6 - 1


def test_maximality_full_space_is_vacuous():
    M = sp.full_kind_space(F2, 3, "alternating")
    rep = tl.check_maximality(M, declared={"maximal": True})
    assert rep.verdict == tl.HOLDS


def test_maximality_pencil_not_maximal_recorded_descriptively():
    M = cons.alternating_pencil(F3, 3)  # sits inside Alt(V), itself constant rank 2
    rep = tl.check_maximality(M)
    assert rep.verdict == tl.NOT_APPLICABLE  # nothing declared
    info = rep.details["informational"]
    assert info["conclusion_holds"] is False
    h = fc.GramForm(F3, info["witness"]["extension_rows"])
    assert not M.contains_form(h)
    assert fc.rank(h) == 2


def test_maximality_violation_with_witness():
    # a single trace form declared maximal extends to the full family
    N = cons.symmetric_trace(F3, 2)
    M = sp.span([N.basis[0]])
    declared = {"maximal": True}
    rep = tl.check_maximality(M, declared=declared)
    assert rep.verdict == tl.VIOLATED
    assert rep.witness["kind"] == "extension"
    assert tl.replay_witness(M, rep.witness)


def test_sampled_maximality_is_charged():
    # each drawn candidate costs its q^d sums at n^2 cells, as in the exhaustive scan
    M = cons.alternating_pencil(F3, 3)
    q, n, d, dk = 3, 3, M.dim, sp.full_kind_space(F3, 3, M.kind).dim
    rng = np.random.default_rng(7)
    drawn = sum(bool(rng.integers(0, q, size=dk, dtype=np.int64).any()) for _ in range(10))
    cost = drawn * q**d * n * n
    assert cost < q**dk * q**d * n * n  # under the exhaustive scan's cost, so the scan is sampled
    over = tl.check_maximality(M, budget=cost - 1, seed=7, trials=10)
    assert over.verdict == tl.BUDGET_EXCEEDED
    assert over.details["budget_error"] == f"maximality needs {cost} steps, budget is {cost - 1}"
    at = tl.check_maximality(M, budget=cost, seed=7, trials=10)
    assert at.verdict != tl.BUDGET_EXCEEDED
    assert at.details["mode"] == "sampled"


def _maximality_reference(M, candidates):
    """(candidates tried, first extension) by contains_form and formcore.rank, one candidate at a time."""
    m = sp.rank_spectrum(M).m
    elements = [zero_form(M.field, M.n)] + [g for _, g in sp.enumerate_nonzero(M)]
    for tried, h in enumerate(candidates, 1):
        if M.contains_form(h):
            continue
        if all(fc.rank(fc.GramForm(M.field, M.field.add_arr(h.entries, g.entries))) == m for g in elements):
            return tried, h
    return len(candidates), None


def _constant_rank_draws():
    """Two constant-rank random draws, of the kind asked for, per (q, n, kind, d) whose scan is small."""
    for q, n, kind, d in itertools.product((3, 4, 5, 9), (2, 3, 4), ("general", "symmetric", "alternating"), (1, 2)):
        F = field_for_order(q)
        if q**sp.kind_space_dim(n, kind) * q**d * n * n > 10**6 or sp.kind_space_dim(n, kind) <= d:
            continue
        draws = (sp.random_subspace(F, n, d, kind, seed) for seed in range(40))
        yield from itertools.islice(
            (M for M in draws if M.kind == kind and sp.rank_spectrum(M).is_constant_rank), 2)


def test_maximality_matches_per_candidate_reference(constant_rank_catalogue):
    """Both scan modes against a per-candidate reference on small inputs.

    The exhaustive scan tries one candidate per scalar line; the reference tries every
    candidate, so the draws over q >= 3 check that the first extension and its position
    in the scan of all candidates are the same.
    """
    outcomes = set()
    positions = []
    for M in _constant_rank_draws():
        ambient = sp.full_kind_space(M.field, M.n, M.kind)
        rep = tl.check_maximality(M)
        tried, extension = _maximality_reference(M, [f for _, f in sp.enumerate_nonzero(ambient)])
        got = (rep.details.get("informational") or {}).get("witness")
        assert rep.details["candidates_tried"] == tried, M
        assert (got and got["extension_rows"]) == (extension and [list(r) for r in extension.rows()]), M
        positions.append((rep.details["maximal"], tried))
    assert {maximal for maximal, _ in positions} == {True, False}
    assert any(not maximal and tried > 1 for maximal, tried in positions)
    for req, M, _ in constant_rank_catalogue:
        q, n = M.field.q, M.n
        ambient = sp.full_kind_space(M.field, n, M.kind)
        size = q**ambient.dim * q**M.dim * n * n
        if q**M.dim > 81 or size > 10**6:
            continue
        trials = min(30, q**ambient.dim - 1)  # the sampled scan is charged, and must fit under size - 1
        rng = np.random.default_rng(5)
        combos = [rng.integers(0, q, size=ambient.dim, dtype=np.int64) for _ in range(trials)]
        sampled = [ambient.form_from_coefficients(c) for c in combos if c.any()]
        for budget, seed, candidates in ((None, None, [f for _, f in sp.enumerate_nonzero(ambient)]),
                                         (size - 1, 5, sampled)):
            rep = tl.check_maximality(M, budget=budget, seed=seed, trials=trials)
            tried, extension = _maximality_reference(M, candidates)
            got = (rep.details.get("informational") or {}).get("witness")
            assert rep.details["candidates_tried"] == tried, req
            assert (got and got["extension_rows"]) == (extension and [list(r) for r in extension.rows()]), req
            outcomes.add((rep.details["mode"], extension is None))
    assert outcomes == set(itertools.product(("exhaustive", "sampled"), (True, False)))


# --- filtration ---------------------------------------------------------------------------------


def test_filtration_hypothesis_satisfying_instance():
    # first-two-columns family over GF(3): n = 3, dim 6 = 2n, spectrum {1, 2}
    M = cons.bilinear_column_family(F3, 3, 2)
    rep = tl.check_filtration(M)
    assert rep.verdict == tl.HOLDS
    assert rep.details["chain_dims"] == [6, 3]
    assert rep.details["chain_spectra"] == [[1, 2], [1]]


def test_filtration_compressed_example_informational():
    # n = 4, dim 8, spectrum {2, 4}: m > ceil(n/2) gates it out, but the
    # chain is still found and reported
    M, _ = cons.build(cons.ConstructionRequest("column-family", {"q": 2, "m": 2, "r": 2, "ext": 2}))
    rep = tl.check_filtration(M)
    assert rep.verdict == tl.NOT_APPLICABLE
    assert rep.details["informational"]["conclusion_holds"] is True
    assert rep.details["chain_dims"] == [8, 4]
    assert rep.details["chain_spectra"] == [[2, 4], [2]]


def test_filtration_r1_chain_is_m_itself():
    M = cons.alternating_pencil(F3, 3)  # dim 2 = n - 1 != rn, gated out
    M2 = cons.bilinear_column_family(F3, 2, 1)  # dim 2 = 1*n, constant rank 1
    rep = tl.check_filtration(M2)
    assert rep.verdict == tl.HOLDS
    assert rep.details["chain_dims"] == [2]


def _filtration_reference(M):
    """(chain dims, chain spectra, failed_at) by kernel_at per lead-1 u, left then right."""
    n = M.n
    current, cur = M, sp.rank_spectrum(M)
    dims, spectra = [M.dim], [list(cur.ranks)]
    while cur.r > 1:
        found = None
        for u in linalg.code_vectors(M.field.q, n)[1:]:
            if u[np.argmax(u != 0)] != 1:
                continue
            for side in ("left", "right"):
                K = sp.kernel_at(current, u, side)
                if K.dim == (cur.r - 1) * n and sp.rank_spectrum(K).ranks == cur.ranks[:-1]:
                    found = K
                    break
            if found is not None:
                break
        if found is None:
            return dims, spectra, cur.r
        current, cur = found, sp.rank_spectrum(found)
        dims.append(current.dim)
        spectra.append(list(cur.ranks))
    return dims, spectra, None


def test_filtration_chain_matches_per_vector_kernels(catalogue):
    """The batched M_u search against the kernel_at loop, on catalogue and random inputs."""
    members = [M for _, M, _ in catalogue if M.field.q**M.n <= 729]
    rng = np.random.default_rng(5)
    for _ in range(30):
        q, kind = int(rng.choice([2, 3])), str(rng.choice(list(sp.KINDS)))
        n = int(rng.integers(2, 4))
        d = int(rng.integers(1, min(sp.kind_space_dim(n, kind), 4) + 1))
        members.append(sp.random_subspace(field_for_order(q), n, d, kind, int(rng.integers(1 << 30))))
    outcomes = set()
    for M in members:
        if sp.rank_spectrum(M).r < 2:
            continue
        rep = tl.check_filtration(M)
        dims, spectra, failed_at = _filtration_reference(M)
        assert (rep.details["chain_dims"], rep.details["chain_spectra"]) == (dims, spectra), M
        witness = rep.witness or rep.details.get("informational", {}).get("witness")
        assert (witness or {}).get("failed_at_r") == failed_at, M
        outcomes.add((len(dims) > 1, failed_at is None))
    assert {(True, True), (False, False)} <= outcomes


def test_filtration_one_side_matches_two_sided_reference(catalogue):
    """Symmetric and alternating M read one kernel table for both sides; the reference tries both sides of every u."""
    members = [M for _, M, _ in catalogue if M.kind != "general"]
    rng = np.random.default_rng(23)
    for q in (2, 3, 4, 5, 9):
        for kind in ("symmetric", "alternating"):
            n = 4 if kind == "alternating" else 3  # alternating forms need n >= 4 for two ranks
            for _ in range(3):
                d = int(rng.integers(1, min(sp.kind_space_dim(n, kind), 4) + 1))
                members.append(sp.random_subspace(field_for_order(q), n, d, kind, int(rng.integers(1 << 30))))
    # a general M whose chain needs a right M_u: only the first two columns are nonzero
    members.append(cons.bilinear_column_family(F3, 3, 2))
    ran = Counter()
    for M in members:
        if M.kind != "general":  # the distinct M_u, in order of first appearance, without the right systems
            lead_one = linalg.code_vectors(M.field.q, M.n)[sp.line_representatives(M.field.q, M.n)]
            both = np.stack([sp.kernel_matrices(M, lead_one, side) for side in ("left", "right")], axis=1)
            found = [sp.null_spaces(M.field, mats) for mats in (both.reshape(-1, M.n, M.dim), both[:, 0])]
            spaces = [(f.bases.tolist(), f.dims.tolist()) for f in found]
            assert spaces[0] == spaces[1], M
            assert sp.kernel_table(M, "left") is sp.kernel_table(M, "right"), M
        if sp.rank_spectrum(M).r < 2:
            continue
        rep = tl.check_filtration(M)
        dims, spectra, failed_at = _filtration_reference(M)
        assert (rep.details["chain_dims"], rep.details["chain_spectra"]) == (dims, spectra), M
        witness = rep.witness or rep.details.get("informational", {}).get("witness")
        assert (witness or {}).get("failed_at_r") == failed_at, M
        ran[M.field.q, M.kind] += 1
    assert set(itertools.product((2, 3, 4, 5, 9), ("symmetric", "alternating"))) | {(3, "general")} <= set(ran)


def test_filtration_solves_are_charged():
    """The filtration's M_u come from kernel_table, charged at q^n d n steps, more than the spectrum's q^d n^2."""
    M = sp.random_subspace(F3, 4, 2, "symmetric", 1)  # spectrum {3, 4}, so the chain is searched
    q, n, d = M.field.q, M.n, M.dim
    assert sp.rank_spectrum(M).r == 2 and q**d * n * n < q**n * d * n
    for budget in (q**d * n * n, q**n * d * n - 1):  # the spectrum fits, the M_u systems do not
        rep = tl.check_filtration(M, budget=budget)
        assert rep.verdict == tl.BUDGET_EXCEEDED and "kernel_dims_all" in rep.details["budget_error"]
    assert tl.check_filtration(M, budget=q**n * d * n).verdict != tl.BUDGET_EXCEEDED


def test_isotropic_classes_match_per_vector_annihilators(catalogue):
    """The batched A_u, one per isotropic line, against a brute-force A_u at every isotropic vector, and the report."""
    checked = 0
    for req, M, _ in catalogue:
        F, q, n = M.field, M.field.q, M.n
        rep = tl.check_isotropic_partition(M)
        if "classes" not in rep.details or q**n > 729:
            continue
        iso = sp.isotropic_set(M)
        lead_one = linalg.code_vectors(q, n, sp.line_representatives(q, n)[iso])
        batched = sp.null_spaces(F, sp.kernel_matrices(M, lead_one, "left").transpose(0, 2, 1))
        assert len(batched.ids) == len(lead_one)
        classes, vectors = {}, 0
        for rep_u, i in zip(lead_one.tolist(), batched.ids):
            a_u = fc.Subspace(F, n, batched.bases[i, :batched.dims[i]])
            pts = set(map(tuple, points(a_u).tolist()))
            for c in range(1, q):  # every nonzero vector c * u of the line
                u = [F.mul(c, x) for x in rep_u]
                assert pts == brute_annihilator(M, u), (req, u)
                vectors += 1
            classes[a_u.key()] = a_u.dim
        assert rep.details["isotropic_nonzero"] == vectors, req
        assert rep.details["classes"] == len(classes), req
        assert rep.details["class_dims"] == sorted(set(classes.values())), req
        assert rep.details["squared_sum_lhs"] == sum((q**k - 1) ** 2 for k in classes.values()), req
        checked += 1
    assert checked


def test_induced_partition_matches_per_radical_null_spaces(constant_rank_catalogue):
    """M_i = {g : R_i <= rad_L g} against one right_null_space per radical and a per-element count."""
    checked = 0
    for req, M, _ in constant_rank_catalogue:
        fld, q, n, d = M.field, M.field.q, M.n, M.dim
        if M.kind != sp.KIND_ALTERNATING or q**n > 729 or q**d > 729:
            continue
        found = sp.radical_spread(M).radicals
        dims, pairwise_trivial, covers = sp.induced_partition(M, found)
        radicals = [fc.Subspace(fld, n, found.bases[j, :found.dims[j]]) for j in range(len(found.dims))]
        want = []
        for rad in radicals:
            # row (u, j) of the system: f_k(u, e_j) for every basis form f_k
            system = [[fc.evaluate(f, u, np.eye(n, dtype=np.int64)[j]) for f in M.basis]
                      for u in rad.rows for j in range(n)]
            want.append(len(linalg.right_null_space(fld, np.array(system, dtype=np.int64).reshape(-1, d))))
        assert dims == want, req
        # every element of M^x lies in exactly one M_i iff they partition M^x
        hits = [sum(meet_dim(fc.left_radical(g), rad) == rad.dim for rad in radicals)
                for _, g in sp.enumerate_nonzero(M)]
        assert (pairwise_trivial and covers) == all(h == 1 for h in hits), req
        checked += 1
    assert checked


# --- declared claims and replay -------------------------------------------------------------------


def test_declared_checker_passes_honest_claims():
    M, declared = cons.build(cons.ConstructionRequest("alt-pencil", {"q": 3, "n": 4}))
    rep = tl.check_declared(M, declared)
    assert rep.verdict == tl.HOLDS


def test_declared_checker_nothing_declared():
    rep = tl.check_declared(sp.span([identity_form(F3, 2)]), None)
    assert rep.verdict == tl.NOT_APPLICABLE


def test_declared_spectrum_mismatch_witness_and_replay():
    M = cons.alternating_pencil(F3, 3)
    declared = {"spectrum": [2], "dim": 2, "kind": "alternating"}
    ok = tl.check_declared(M, declared)
    assert ok.verdict == tl.HOLDS
    # now corrupt the basis: swap in a rank-1 general form... keep kind by
    # using an alternating form on a larger radical? rank of alternating is
    # even, so break the dim claim instead
    M2 = sp.span([M.basis[0]])
    rep = tl.check_declared(M2, declared)
    assert rep.verdict == tl.VIOLATED
    assert rep.witness["kind"] == "dim-mismatch"
    assert tl.replay_witness(M2, rep.witness)


def test_declared_rank_breaking_form_witness():
    M, declared = cons.build(cons.ConstructionRequest("trace-symmetric", {"q": 3, "ext": 2, "n": 3}))
    corrupted = sp.FormSubspace(M.field, 3, [M.basis[0].entries, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]])
    rep = tl.check_declared(corrupted, declared)
    assert rep.verdict == tl.VIOLATED
    w = rep.witness
    assert w["kind"] == "spectrum-mismatch" and w["rank"] not in w["declared"]
    assert tl.replay_witness(corrupted, w)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_spectrum_witness_is_first_stray_element(q):
    """The witness read off the line table against the first stray element of the full walk."""
    fld = field_for_order(q)
    for seed in range(3):
        M = sp.random_subspace(fld, 3, 2, "general", seed)
        ranks = [(list(c), fc.rank(f)) for c, f in sp.enumerate_nonzero(M)]
        for size in range(4):
            for declared in itertools.combinations(range(1, 4), size):
                rep = tl.check_declared(M, {"spectrum": list(declared)})
                first = next(((c, r) for c, r in ranks if r not in declared), (None, None))
                if rep.verdict == tl.HOLDS:
                    assert first == (None, None)
                else:
                    assert (rep.witness["coefficients"], rep.witness["rank"]) == first, (seed, declared)


def test_spread_replay_counts_the_radicals_itself(monkeypatch):
    """A radical_spread that reports t + 1 makes a false spread witness, which does not replay."""
    M, declared = cons.build(cons.ConstructionRequest("alt-odd", {"q": 3, "k": 3}))
    honest = tl.check_declared(M, {**declared, "spread_t": declared["spread_t"] - 1})
    assert honest.verdict == tl.VIOLATED and tl.replay_witness(M, honest.witness)
    real = tl.radical_spread
    monkeypatch.setattr(tl, "radical_spread", lambda M, budget=None: dataclasses.replace(
        real(M, budget), t=real(M, budget).t + 1))
    rep = tl.check_declared(M, declared)
    assert rep.verdict == tl.VIOLATED
    assert (rep.witness["declared_t"], rep.witness["actual_t"]) == (13, 14)
    assert not tl.replay_witness(M, rep.witness)


def test_spread_replay_counts_covers_and_meets_itself():
    """A declared t that matches, on radicals that do not cover V, is a violation whose witness replays."""
    M, _ = cons.build(cons.ConstructionRequest("alt-pencil", {"q": 2, "n": 3}))  # t = 3 lines of V's 7
    rep = tl.check_declared(M, {"spread_t": 3})
    assert rep.verdict == tl.VIOLATED
    w = rep.witness
    assert (w["declared_t"], w["actual_t"], w["covers"], w["pairwise_trivial"]) == (3, 3, False, True)
    assert tl.replay_witness(M, w)
    assert not tl.replay_witness(M, {**w, "covers": True})  # flipped: the replay's own count disagrees
    assert not tl.replay_witness(M, {**w, "pairwise_trivial": False})


def test_spectrum_replay_counts_the_ranks_itself(monkeypatch):
    """A rank_spectrum that drops a rank makes a false spectrum witness, which does not replay."""
    M, declared = cons.build(cons.ConstructionRequest("column-family", {"q": 2, "m": 2, "r": 2}))
    assert declared["spectrum"] == [1, 2]
    honest = tl.check_declared(M, {"spectrum": [1, 2, 3]})  # no stray rank: a declared rank is missing
    assert honest.witness["coefficients"] is None and tl.replay_witness(M, honest.witness)
    real = tl.rank_spectrum

    def dropped(M, budget=None):
        spec = real(M, budget)
        return sp.RankSpectrum(spec.ranks[1:], spec.counts[1:])

    monkeypatch.setattr(tl, "rank_spectrum", dropped)
    rep = tl.check_declared(M, declared)
    assert rep.verdict == tl.VIOLATED
    assert (rep.witness["coefficients"], rep.witness["actual"]) == (None, [2])
    assert not tl.replay_witness(M, rep.witness)


def test_dimension_bound_witnesses_replay():
    """Alt(4) over GF(3) breaks four gated-out bounds; each informational witness replays, and a changed one not."""
    M = sp.full_kind_space(F3, 4, "alternating")
    witnesses = [r.details["informational"]["witness"] for r in tl.check_dimension_bounds(M)
                 if "witness" in r.details.get("informational", {})]
    assert len(witnesses) == 4 and {w["kind"] for w in witnesses} == {"dimension-bound"}
    for w in witnesses:
        assert tl.replay_witness(M, w)
        assert not tl.replay_witness(M, {**w, "dim": w["dim"] + 1})
        assert not tl.replay_witness(M, {**w, "spectrum": w["spectrum"][1:]})
    # dim = limit breaks a strict bound only
    at_limit = {**witnesses[0], "limit": M.dim}
    assert not tl.replay_witness(M, {**at_limit, "strict": False})
    assert tl.replay_witness(M, {**at_limit, "strict": True})


def test_declared_distinct_radicals_are_rederived():
    """The hunt's distinct_radicals claim is recounted; a wrong one is a violation whose witness replays."""
    loaded = fileio.read_subspace(os.path.join(FIXTURE_DIR, "symm-rank2-distinct-radicals-q3-n3.json"))
    M, declared = loaded.subspace, loaded.declared
    assert declared["distinct_radicals"] == 4 and tl.check_declared(M, declared).verdict == tl.HOLDS
    rep = tl.check_declared(M, {**declared, "distinct_radicals": 5})
    assert rep.verdict == tl.VIOLATED and rep.details["mismatches"] == ["distinct_radicals"]
    assert rep.witness == {"kind": "radical-count-mismatch", "declared_radicals": 5, "actual_radicals": 4}
    assert tl.replay_witness(M, rep.witness)
    assert not tl.replay_witness(M, {**rep.witness, "actual_radicals": 5})
    assert not tl.replay_witness(M, {**rep.witness, "declared_radicals": 4})


def test_replay_rejects_unknown_kind():
    with pytest.raises(ValueError):
        tl.replay_witness(sp.span([identity_form(F3, 2)]), {"kind": "nope"})


# --- suite dispatch -----------------------------------------------------------------------------


def test_run_suite_full_alt33():
    M = sp.full_kind_space(F3, 3, "alternating")
    reports = tl.run_suite(M)
    by_id = report_map(reports)
    assert by_id["orthogonality"].verdict == tl.HOLDS
    assert by_id["counting-identity"].verdict == tl.HOLDS
    assert by_id["spread"].verdict == tl.HOLDS
    assert by_id["bound-alternating-max"].verdict == tl.HOLDS
    assert not any(r.verdict == tl.VIOLATED for r in reports)


def test_run_suite_empty_selection():
    assert tl.run_suite(sp.span([identity_form(F3, 2)]), selection=()) == []


def test_run_suite_unknown_selection():
    with pytest.raises(ValueError, match="unknown suite"):
        tl.run_suite(sp.span([identity_form(F3, 2)]), selection=("nope",))


def test_gating_soundness_violated_requires_hypotheses_and_witness():
    rng = np.random.default_rng(31)
    for _ in range(25):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 4))
        kind = str(rng.choice(list(sp.KINDS)))
        d = int(rng.integers(1, min(sp.kind_space_dim(n, kind), 3) + 1))
        M = sp.random_subspace(field_for_order(q), n, d, kind, int(rng.integers(1 << 30)))
        for rep in tl.run_suite(M, selection=("orthogonality", "counting", "bounds", "spread", "radical-equality")):
            if rep.verdict == tl.VIOLATED:
                assert rep.applicable and rep.witness is not None


@pytest.mark.parametrize("q", [7, 8, 9])
def test_no_violations_on_larger_field_catalogue(q):
    # the q in {7, 8, 9} leg of the zero-violations invariant
    F = field_for_order(q)
    members = [
        cons.alternating_pencil(F, 3),
        sp.full_kind_space(F, 3, "alternating"),
        cons.block_symmetric(F, 3, 1),
        cons.symmetric_trace(F, 2),
        cons.alternating_odd_full(3, F),
    ]
    for M in members:
        for rep in tl.run_suite(M, seed=q):
            assert rep.verdict != tl.VIOLATED, (q, rep.theorem_id, rep.witness)


def test_reports_are_deterministic():
    M, declared = cons.build(cons.ConstructionRequest("alt-odd", {"q": 3, "k": 3}))
    r1 = [r.to_json() for r in tl.run_suite(M, declared=declared)]
    r2 = [r.to_json() for r in tl.run_suite(M, declared=declared)]
    assert r1 == r2


def test_budget_exceeded_verdict():
    M = sp.full_kind_space(F3, 3, "general")
    rep = tl.check_counting_identity(M, budget=10)
    assert rep.verdict == tl.BUDGET_EXCEEDED
    assert "budget_error" in rep.details


# suite name -> (checker attribute, the theorem id of its budget-exceeded report)
SUITE_CHECKERS = {
    "declared": ("check_declared", "declared-claims"),
    "orthogonality": ("check_orthogonality", "orthogonality"),
    "counting": ("check_counting_identity", "counting-identity"),
    "kernel-bounds": ("check_kernel_bounds", "kernel-bounds"),
    "bounds": ("check_dimension_bounds", "dimension-bounds"),
    "spread": ("check_spread", "spread"),
    "radical-equality": ("check_radical_equality", "radical-equality"),
    "isotropic-partition": ("check_isotropic_partition", "isotropic-partition"),
    "witt-census": ("check_witt_census_identity", "witt-census"),
    "filtration": ("check_filtration", "filtration"),
    "maximality": ("check_maximality", "maximality"),
}


def test_suite_checkers_table_covers_every_suite_name():
    assert tuple(SUITE_CHECKERS) == tl.SUITE_NAMES


@pytest.mark.parametrize("name", list(SUITE_CHECKERS))
def test_every_checker_reports_its_own_overrun(name):
    """budget=1 overruns the first charge of every checker, directly and through run_suite."""
    M = sp.full_kind_space(F3, 3, "alternating")
    declared = {"spectrum": [2]}  # with nothing declared the declared checker charges nothing
    attr, tid = SUITE_CHECKERS[name]
    direct = getattr(tl, attr)(M, declared, 1) if name == "declared" else getattr(tl, attr)(M, 1)
    if name != "bounds":  # the one checker that returns a list
        direct = [direct]
    for reports in (direct, tl.run_suite(M, [name], budget=1, declared=declared)):
        assert [(r.theorem_id, r.verdict, r.hypotheses) for r in reports] == [(tid, tl.BUDGET_EXCEEDED, ())]
        assert "budget is 1" in reports[0].details["budget_error"]


@pytest.mark.parametrize("name", list(SUITE_CHECKERS))
def test_rebinding_a_checker_reaches_run_suite(name, monkeypatch):
    marker = tl.VerificationReport("marker", (), tl.HOLDS)
    attr, _ = SUITE_CHECKERS[name]
    monkeypatch.setattr(tl, attr, lambda *args, **kwargs: [marker] if name == "bounds" else marker)
    assert tl.run_suite(sp.full_kind_space(F3, 2, "alternating"), [name]) == [marker]


@pytest.mark.parametrize("read_radicals", [False, True])
def test_witt_census_eliminates_nothing_once_the_line_table_exists(read_radicals, monkeypatch):
    """The census reads its pivot columns off the stack line_table returns, even after lines has read it."""
    M = cons.block_symmetric(F3, 4, 1)
    coeffs, ranks, reduced = sp.line_table(M, None, "t")
    grams = sp.flat_forms_for(M, coeffs).reshape(-1, M.n, M.n)
    assert [a.tolist() for a in linalg.batch_rref(M.field, grams)] == [reduced.tolist(), ranks.tolist()]
    if read_radicals:
        sp.lines(M)
    calls = []
    batch_rref = linalg.batch_rref
    monkeypatch.setattr(linalg, "batch_rref", lambda *args: calls.append(1) or batch_rref(*args))
    rep = tl.check_witt_census_identity(M)
    assert "A" in rep.details  # the census ran
    assert calls == []
