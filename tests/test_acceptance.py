"""The acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is exhaustive at desk scale: budgets are counted
in enumeration steps and every expected value is either trivial, derived
from an inline oracle, or a frozen constant checked against the theory.
"""

import json
import os
import time

import numpy as np
import pytest
from oracles import trace, witt_census

from bilrank import constructions as cons
from bilrank import fileio
from bilrank import formcore as fc
from bilrank import linalg
from bilrank import spanspace as sp
from bilrank import theoremlab as tl
from bilrank.cli import main as cli_main
from bilrank.gf import field_for_order, make_tower


def _line(capsys, num, ok, text):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_acceptance_1_counting_identity(capsys, constant_rank_catalogue):
    """Exact double-count identity on every constant rank catalogue member."""
    worst = 0.0
    checked = 0
    for req, M, _ in constant_rank_catalogue:
        t0 = time.monotonic()
        rep = tl.check_counting_identity(M)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        assert rep.verdict == tl.HOLDS, (req, rep.details)
        assert rep.details["lhs"] == rep.details["rhs"]
        checked += 1
        assert dt < 60.0, f"{req} took {dt:.1f}s"
    _line(capsys, 1, checked > 20, f"counting identity exact on {checked} constant-rank "
                           f"fixtures, slowest instance {worst:.2f}s (limit 60s)")


def test_acceptance_2_orthogonality(capsys, catalogue):
    """No g(u, w) != 0 over radicals of max-rank elements when q >= m+1."""
    checked = 0
    pairs = 0
    for req, M, _ in catalogue:
        spec = sp.rank_spectrum(M)
        if M.field.q < spec.m + 1:
            continue
        rep = tl.check_orthogonality(M)
        assert rep.verdict == tl.HOLDS, (req, rep.witness)
        checked += 1
        pairs += rep.details["radical_pair_points_covered"]
    _line(capsys, 2, checked > 15, f"orthogonality holds on {checked} hypothesis-"
                           f"satisfying fixtures, {pairs} radical point pairs covered")


def test_acceptance_3_spread_theorem(capsys):
    """Alt(V) at n=3, q=3 gives t=13; compressed odd family gives t=21."""
    alt = sp.full_kind_space(field_for_order(3), 3, "alternating")
    rep = tl.check_spread(alt)
    ok1 = rep.verdict == tl.HOLDS and rep.details["t"] == 13
    census = sp.radical_spread(alt)
    ok1 = ok1 and census.t == 13 and census.covers and census.pairwise_trivial

    M, _ = cons.build(cons.ConstructionRequest("alt-odd", {"q": 2, "k": 3, "ext": 2}))
    spec = sp.rank_spectrum(M)
    census2 = sp.radical_spread(M)
    ok2 = (
        M.n == 6
        and spec.ranks == (4,)
        and census2.t == (2**6 - 1) // (2**2 - 1) == 21
        and census2.covers
        and census2.pairwise_trivial
    )
    # the induced spread of M itself, via the checker's census
    rep2 = tl.check_spread(M)
    ok2 = ok2 and rep2.details["informational"]["conclusion_holds"] is True
    _line(capsys, 3, ok1 and ok2, "spreads: Alt(3)/GF(3) t=13 with induced spread of M; "
                          "compressed odd family n=6, m=4, t=21")


TOWER_FIXTURES = [
    (2, 2, lambda L: sp.span([fc.GramForm(L, [[1]])])),
    (2, 2, lambda L: cons.bilinear_column_family(L, 2, 1)),
    (2, 2, lambda L: cons.alternating_odd_full(3, L)),
    (3, 2, lambda L: cons.bilinear_column_family(L, 2, 2)),
    (3, 2, lambda L: cons.symmetric_trace(L, 2)),
    (5, 2, lambda L: cons.bilinear_column_family(L, 2, 1)),
    (7, 2, lambda L: sp.span([fc.GramForm(L, [[1]])])),
    (2, 4, lambda L: sp.span([fc.GramForm(L, [[1]])])),
    (9, 2, lambda L: sp.span([fc.GramForm(L, [[1]])])),
    (3, 4, lambda L: sp.span([fc.GramForm(L, [[1]])])),
]


def test_acceptance_4_trace_compression(capsys):
    """rank(F) = t * rank(f) element-wise on every fixture with |L| <= 81."""
    elements = 0
    for q, t, make in TOWER_FIXTURES:
        tower = make_tower(field_for_order(q), t)
        L = tower.top
        assert L.q <= 81
        M = make(L)
        C = cons.trace_compress(M, tower)
        lam = tower.power_basis()
        for _, g in sp.enumerate_nonzero(M):
            nk = M.n * t
            entries = np.zeros((nk, nk), dtype=np.int64)
            for i in range(M.n):
                for bi in range(t):
                    for j in range(M.n):
                        for cj in range(t):
                            val = L.mul(lam[bi], L.mul(lam[cj], int(g.entries[i, j])))
                            entries[i * t + bi, j * t + cj] = trace(tower, val)
            F = fc.GramForm(tower.base, entries)
            assert fc.rank(F) == t * fc.rank(g), (q, t, g.rows())
            assert C.contains_form(F)
            elements += 1
    _line(capsys, 4, elements > 500, f"rank multiplies by t for all {elements} "
                             "elements of the compressed fixtures")


def test_acceptance_5_construction_spectra(capsys):
    """The three flagship constructions carry their advertised spectra."""
    blk = cons.block_symmetric(field_for_order(3), 4, 2)
    ok1 = blk.dim == 4 and sp.rank_spectrum(blk).ranks == (2, 4)

    st = cons.symmetric_trace(field_for_order(3), 2)
    ok2 = st.dim == 2 and sp.rank_spectrum(st).ranks == (2,)

    M, _ = cons.build(cons.ConstructionRequest("column-family", {"q": 3, "m": 3, "r": 1, "ext": 2}))
    spec = sp.rank_spectrum(M)
    rights = {fc.right_radical(f).key() for _, f in sp.enumerate_nonzero(M)}
    ok3 = M.dim == 6 and M.n == 6 and spec.ranks == (2,) and len(rights) == 1
    _line(capsys, 5, ok1 and ok2 and ok3,
          "block(4,2) dim 4 spectrum {2,4}; trace(GF(3),2) constant rank 2 dim 2; "
          "compressed column family dim 6 constant rank 2 with one shared right radical")


def test_acceptance_6_dimension_bound_fuzzing(capsys):
    """10^3 seeded subspaces per (q, n, kind): zero violated bounds, < 10 min."""
    t0 = time.monotonic()
    trials = 1000
    violations = []
    total = 0
    for q in (3, 5):
        field = field_for_order(q)
        for n in (3, 4, 5):
            for kind in sp.KINDS:
                dmax = 1
                while q ** (dmax + 1) * n * n <= (1 << 16):
                    dmax += 1
                dmax = min(dmax, sp.kind_space_dim(n, kind))
                for trial in range(trials):
                    ss = np.random.SeedSequence([4242, q, n, sp.KINDS.index(kind), trial])
                    d = int(np.random.default_rng(ss).integers(1, dmax + 1))
                    M = sp.random_subspace(field, n, d, kind, ss.spawn(1)[0])
                    for rep in tl.check_dimension_bounds(M):
                        total += 1
                        if rep.verdict == tl.VIOLATED:
                            violations.append((q, n, kind, trial, rep.theorem_id))
    elapsed = time.monotonic() - t0
    _line(capsys, 6, not violations and elapsed < 600.0,
          f"18 grid points x {trials} subspaces: {total} gated bound checks, "
          f"{len(violations)} violations, {elapsed:.0f}s (limit 600s)")


def test_acceptance_7_witt_census(capsys):
    """Closed-form isotropic counts match brute force: 10^3 forms per point."""
    checked = 0
    for q in (3, 5):
        F = field_for_order(q)
        for n in (2, 3, 4):
            vecs = linalg.code_vectors(q, n)
            rng = np.random.default_rng(q * 100 + n)
            for _ in range(1000):
                upper = rng.integers(0, q, size=(n, n))
                sym = np.triu(upper) + np.triu(upper, 1).T
                f = fc.GramForm(F, sym)
                wc = witt_census(f)
                tv = F.matmul_arr(vecs, f.entries)
                quad = F.sum_arr(F.mul_arr(tv, vecs), axis=1)
                brute = int((np.asarray(quad)[1:] == 0).sum())
                assert wc.isotropic_nonzero_count == brute, (q, n, f.rows())
                checked += 1
    _line(capsys, 7, checked == 6000, f"witt census closed form equals enumeration on {checked} "
                              "symmetric forms over GF(3), GF(5), n <= 4")


def test_acceptance_8_maximality(capsys):
    """The embedded trace fixture survives the exhaustive 3^6 extension scan."""
    M, declared = cons.build(
        cons.ConstructionRequest("trace-symmetric", {"q": 3, "ext": 2, "n": 3})
    )
    t0 = time.monotonic()
    rep = tl.check_maximality(M, declared=declared)
    elapsed = time.monotonic() - t0
    ok = (
        rep.verdict == tl.HOLDS
        and rep.details["mode"] == "exhaustive"
        and rep.details["candidates_tried"] == 3**6 - 1
        and elapsed < 10.0
    )
    _line(capsys, 8, ok, f"no constant rank 2 extension among all 729 symmetric Gram "
                 f"matrices, scanned in {elapsed:.2f}s (limit 10s)")


def test_acceptance_9_kernel_lemma_bounds(capsys, catalogue):
    """dim M_u >= dim M - n, the rank-m refinement, and the alternating one."""
    checked = 0
    for req, M, _ in catalogue:
        rep = tl.check_kernel_bounds(M)
        assert rep.verdict == tl.HOLDS, (req, rep.witness)
        checked += 1
    _line(capsys, 9, checked > 30, f"kernel dimension lemmas hold exhaustively on all "
                           f"{checked} catalogue fixtures")


def _corrupted_fixtures(tmp_path):
    """One kind-preserving corrupted fixture per checker, as (name, path)."""
    F3 = field_for_order(3)
    out = []

    def write(name, M, declared):
        path = str(tmp_path / f"{name}.json")
        fileio.write_subspace(path, M, declared)
        out.append((name, path))

    def rank1_sym(n):
        m = np.zeros((n, n), dtype=np.int64)
        m[0, 0] = 1
        return m

    # declared / counting / orthogonality / kernel-bounds: a rank-breaking
    # form inside the trace family, spectrum claim left stale
    trace, trace_decl = cons.build(cons.ConstructionRequest("trace-symmetric", {"q": 3, "ext": 2, "n": 3}))
    broken_trace = sp.FormSubspace(F3, 3, [trace.basis[0].entries, rank1_sym(3)])
    for name in ("declared", "counting", "orthogonality", "kernel-bounds"):
        write(name, broken_trace, dict(trace_decl, maximal=False))

    # bounds: block fixture with an injected rank-1 element
    blk, blk_decl = cons.build(cons.ConstructionRequest("block-symmetric", {"q": 3, "n": 4, "r": 2}))
    write("bounds", sp.FormSubspace(F3, 4, [f.entries for f in blk.basis[:3]] + [rank1_sym(4)]), blk_decl)

    # spread: compressed odd family with a rank-2 alternating intruder
    aodd, aodd_decl = cons.build(cons.ConstructionRequest("alt-odd", {"q": 2, "k": 3, "ext": 2}))
    F2 = field_for_order(2)
    intruder = np.zeros((6, 6), dtype=np.int64)
    intruder[0, 1] = intruder[1, 0] = 1
    write("spread", sp.FormSubspace(F2, 6, [f.entries for f in aodd.basis[:5]] + [intruder]), aodd_decl)

    # radical-equality: column family claiming dim 6 but one basis form short
    cf, cf_decl = cons.build(cons.ConstructionRequest("column-family", {"q": 3, "m": 3, "r": 1, "ext": 2}))
    write("radical-equality", sp.FormSubspace(F3, 6, [f.entries for f in cf.basis[:5]]), cf_decl)

    # isotropic-partition / witt-census: the n = m = 2 trace family corrupted
    st, st_decl = cons.build(cons.ConstructionRequest("trace-symmetric", {"q": 3, "ext": 2}))
    broken_st = sp.FormSubspace(F3, 2, [st.basis[0].entries, rank1_sym(2)])
    write("isotropic-partition", broken_st, dict(st_decl, maximal=False))
    write("witt-census", broken_st, dict(st_decl, maximal=False))

    # filtration: the rn-dimensional family with a third-column intruder
    filt, filt_decl = cons.build(cons.ConstructionRequest("column-family", {"q": 3, "m": 3, "r": 2}))
    third = np.zeros((3, 3), dtype=np.int64)
    third[0, 2] = 1
    write("filtration", sp.FormSubspace(F3, 3, [f.entries for f in filt.basis[:5]] + [third]), filt_decl)

    # maximality: a single trace form dishonestly declared maximal
    single = sp.span([st.basis[0]])
    write("maximality", single, {"dim": 1, "kind": "symmetric", "spectrum": [2], "maximal": True})
    return out


def test_acceptance_10_witness_replay(capsys, tmp_path):
    """Every injected violation exits 1 and its witness replays bit-for-bit."""
    fixtures = _corrupted_fixtures(tmp_path)
    assert {name for name, _ in fixtures} == set(tl.SUITE_NAMES)
    replayed = 0
    for name, path in fixtures:
        rep_path = str(tmp_path / f"{name}-report.json")
        code = cli_main(["verify", path, "--out", rep_path])
        assert code == 1, f"{name}: expected exit 1, got {code}"
        with open(rep_path) as fh:
            reports = json.load(fh)["reports"]
        violated = [r for r in reports if r["verdict"] == "violated"]
        assert violated, name
        loaded = fileio.read_subspace(path)
        for r in violated:
            assert r["witness"] is not None, (name, r["theorem_id"])
            assert tl.replay_witness(loaded.subspace, r["witness"]), (name, r["theorem_id"])
            replayed += 1
    _line(capsys, 10, replayed >= len(fixtures),
          f"{len(fixtures)} corrupted fixtures all exit 1; {replayed} witnesses "
          "replayed through formcore")
