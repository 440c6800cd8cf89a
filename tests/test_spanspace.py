"""Subspace enumeration, spectra and the derived sets of the theory."""

import functools
import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest
from conftest import catalogue_requests
from oracles import (
    ALTERNATING,
    brute_annihilator,
    classify,
    contains,
    element,
    identity_form,
    points,
    subspace_from_rows,
    v_set,
    zero_form,
    zero_subspace,
)

from bilrank import constructions as cons
from bilrank import formcore as fc
from bilrank import linalg
from bilrank import spanspace as sp
from bilrank.gf import field_for_order

F2 = field_for_order(2)
F3 = field_for_order(3)
F4 = field_for_order(4)
F5 = field_for_order(5)


# --- span and bases -----------------------------------------------------------


def test_span_collapses_duplicates():
    f = identity_form(F3, 2)
    assert sp.span([f, f]).dim == 1


def test_span_of_nothing_is_zero_subspace():
    z = sp.span([], field=F3, n=2)
    assert z.dim == 0
    assert sp.rank_spectrum(z).ranks == ()
    assert sp.rank_spectrum(z).m == 0  # "rank(M) = 0" is reserved for this case


def test_span_with_one_dependency():
    rng = np.random.default_rng(2)
    a = fc.GramForm(F3, rng.integers(0, 3, size=(2, 2)))
    b = fc.GramForm(F3, rng.integers(0, 3, size=(2, 2)))
    summed = fc.GramForm(F3, F3.add_arr(a.entries, b.entries))
    # oracle: flattening and row-reducing the three vectors leaves rank 2
    flat = np.stack([a.flat(), b.flat(), summed.flat()])
    assert linalg.rank(F3, flat) == 2
    assert sp.span([a, b, summed]).dim == 2


def test_span_rejects_mixed_inputs():
    with pytest.raises(ValueError, match="mixed"):
        sp.span([identity_form(F3, 2), identity_form(F3, 3)])
    with pytest.raises(ValueError, match="empty"):
        sp.span([])


def _random_stacks():
    """(F, (d, n, n) stack) over q in {2, 3, 4, 5, 9} and n in 1..4: one kind per stack, then mixed kinds.

    Every form is drawn cell by cell: a symmetric one mirrors its upper triangle and keeps a random
    diagonal (nonzero in characteristic 2 too), an alternating one negates its mirror over a zero diagonal.
    """
    rng = np.random.default_rng(15)
    for q in (2, 3, 4, 5, 9):
        F = field_for_order(q)
        for n in range(1, 5):
            for kind in (*sp.KINDS, "mixed"):
                for d in (1, 2, 3):
                    forms = []
                    for _ in range(d):
                        k = rng.choice(sp.KINDS) if kind == "mixed" else kind
                        g = rng.integers(0, q, size=(n, n))
                        if k != "general":
                            upper = np.triu(g, 1)
                            mirror = upper.T if k == "symmetric" else F.neg_arr(upper.T)
                            g = upper + mirror + (np.diag(np.diag(g)) if k == "symmetric" else 0)
                        forms.append(g)
                    yield F, np.array(forms, dtype=np.int64)


def _first_dependent_row(F, stack):
    """The prefix-rank oracle: the first row that does not raise the rank of the rows before it, or None."""
    flat = stack.reshape(len(stack), -1)
    return next((i for i in range(len(flat)) if linalg.rank(F, flat[: i + 1]) <= i), None)


def _random_subspaces():
    """FormSubspaces of the independent rows of each random stack, as the prefix-rank oracle picks them."""
    for F, stack in _random_stacks():
        flat = stack.reshape(len(stack), -1)
        keep = [i for i in range(len(flat)) if linalg.rank(F, flat[: i + 1]) > linalg.rank(F, flat[:i])]
        yield sp.FormSubspace(F, stack.shape[1], stack[keep])


def test_dependent_basis_row_is_named():
    f = identity_form(F3, 2)
    g = fc.GramForm(F3, F3.mul_arr(2, f.entries))
    with pytest.raises(ValueError, match="basis row 1 is dependent"):
        sp.FormSubspace(F3, 2, [f.entries, g.entries])
    with pytest.raises(ValueError, match="basis row 0 is dependent"):
        sp.FormSubspace(F3, 2, [zero_form(F3, 2).entries, f.entries])
    h = fc.GramForm(F3, [[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="basis row 2 is dependent"):
        sp.FormSubspace(F3, 2, [f.entries, h.entries, F3.add_arr(f.entries, h.entries)])
    dependent = 0
    for F, stack in _random_stacks():
        # a copy of an earlier row, or a sum of two, appended makes the stack dependent
        extra = stack[-1:] if len(stack) == 1 else F.add_arr(stack[:1], stack[-1:])
        for candidate in (stack, np.concatenate([stack, extra])):
            row = _first_dependent_row(F, candidate)
            if row is None:
                assert sp.FormSubspace(F, stack.shape[1], candidate).dim == len(candidate)
                continue
            dependent += 1
            with pytest.raises(ValueError, match=f"^basis row {row} is dependent on earlier rows$"):
                sp.FormSubspace(F, stack.shape[1], candidate)
    assert dependent > 300


def test_stack_of_the_wrong_shape_or_codes_is_rejected():
    for F, stack in _random_stacks():
        d, n = len(stack), stack.shape[1]
        wide = np.concatenate([stack, np.zeros((d, n, 1), dtype=np.int64)], axis=2)
        held = stack.copy()
        held[-1, 0, 0] = F.q
        for bad in (wide, stack.reshape(d, n * n), held):
            with pytest.raises(ValueError):
                sp.FormSubspace(F, n, bad)
    # an integer past int64 is no element code, nor is any entry of a type other than an integer
    # (a float, a bool, an object array, a uint64 past int64), however close to a code it is:
    # the same error as any other code out of range, never a truncated code
    for build in (lambda e: fc.GramForm(F3, e), lambda e: sp.FormSubspace(F3, len(e), [e])):
        for entries in (
            [[1, 10**30], [0, 1]],
            [[1.5]],
            [[True]],
            [[np.float64(2.0)]],
            [[2.9]],
            np.array([[1, 0], [0, 1]], dtype=object),
            np.array([[2**63, 0], [0, 1]], dtype=np.uint64),
            np.eye(2),
        ):
            with pytest.raises(ValueError, match=r"entries must be element codes in \[0, q\)"):
                build(entries)
    with pytest.raises(ValueError, match=r"entries must be element codes in \[0, q\)"):
        sp.FormSubspace(F3, 1, [[[2.9]]])
    assert fc.GramForm(F3, np.array([[2]], dtype=np.uint8)).rows() == ((2,),)  # any integer type holds codes
    assert sp.FormSubspace(F3, 2, []).dim == 0 == sp.FormSubspace(F3, 2, np.zeros((0, 2, 2))).dim


def test_symmetric_flag_matches_the_basis():
    spaces = [sp.full_kind_space(F, n, kind) for F in (F2, F3, F4) for n in (2, 3) for kind in sp.KINDS]
    spaces.append(sp.span([], field=F3, n=2))
    spaces.extend(_random_subspaces())
    for M in spaces:
        assert M.symmetric == all((f.entries == f.entries.T).all() for f in M.basis), M


def test_kind_tag_matches_classification():
    assert sp.full_kind_space(F3, 3, "alternating").kind == "alternating"
    assert sp.full_kind_space(F3, 3, "symmetric").kind == "symmetric"
    assert sp.full_kind_space(F3, 2, "general").kind == "general"
    mixed = sp.span([identity_form(F3, 2), fc.GramForm(F3, [[0, 1], [2, 0]])])
    assert mixed.kind == "general"
    seen = Counter()
    for M in _random_subspaces():
        # the oracle: per-form classify for alternation, G^T = G per form for symmetry (an alternating
        # form is symmetric only in characteristic 2, so odd-characteristic mixes of the two are general)
        if all(classify(f) == ALTERNATING for f in M.basis):
            want = "alternating"
        elif all((f.entries == f.entries.T).all() for f in M.basis):
            want = "symmetric"
        else:
            want = "general"
        assert M.kind == want, (M, [f.rows() for f in M.basis])
        diagonal = any(f.entries.diagonal().any() for f in M.basis)
        seen[want, M.field.p == 2 and diagonal] += 1
    # every kind comes up, and so do symmetric forms with a nonzero diagonal in characteristic 2
    assert all(seen[kind, False] for kind in sp.KINDS) and seen["symmetric", True]


# --- enumeration ----------------------------------------------------------------


def test_enumeration_counts():
    assert sum(1 for _ in sp.enumerate_nonzero(sp.span([identity_form(F3, 2)]))) == 2
    alt = sp.full_kind_space(F2, 3, "alternating")
    assert sum(1 for _ in sp.enumerate_nonzero(alt)) == 7


def test_enumeration_matches_direct_double_loop():
    M = cons.bilinear_column_family(F4, 2, 1)  # d = 2 over GF(4)
    got = {f.rows() for _, f in sp.enumerate_nonzero(M)}
    # oracle: a literal double loop over coefficient pairs
    want = set()
    for c0 in range(4):
        for c1 in range(4):
            if c0 == 0 and c1 == 0:
                continue
            acc = F4.add_arr(
                F4.mul_arr(c0, M.basis[0].entries), F4.mul_arr(c1, M.basis[1].entries)
            )
            want.add(tuple(tuple(int(v) for v in row) for row in acc))
    assert got == want and len(got) == 15


def test_enumeration_order_is_lexicographic_and_deterministic():
    M = sp.full_kind_space(F3, 2, "alternating")  # d = 1
    coeffs = [c for c, _ in sp.enumerate_nonzero(M)]
    assert coeffs == [(1,), (2,)]
    M2 = cons.alternating_pencil(F2, 4)
    run1 = [c for c, _ in sp.enumerate_nonzero(M2)]
    run2 = [c for c, _ in sp.enumerate_nonzero(M2)]
    assert run1 == run2 == sorted(run1)


def test_enumeration_budget_guard():
    M = sp.full_kind_space(F3, 3, "general")
    with pytest.raises(sp.BudgetExceeded):
        list(sp.enumerate_nonzero(M, budget=10))


@pytest.mark.parametrize("q, k", [(2, 0), (2, 4), (3, 3), (4, 2), (5, 3), (9, 2)])
def test_line_representatives_are_the_ascending_lead_one_codes(q, k):
    lead_one = [i for i, v in enumerate(linalg.code_vectors(q, k).tolist()) if any(v) and next(x for x in v if x) == 1]
    assert sp.line_representatives(q, k).tolist() == lead_one


@functools.lru_cache(maxsize=None)
def _line_positions(q, n):
    return {code: i for i, code in enumerate(sp.line_representatives(q, n).tolist())}


def _line_id(F, u):
    """The position in line_representatives of the line of a nonzero u: u scaled by the scalar inverse of its lead."""
    c = F.inv(next(int(v) for v in u if v))
    code = 0
    for v in u:
        code = code * F.q + F.mul(c, int(v))
    return _line_positions(F.q, len(u))[code]


def _lines_of_V(F, n):
    """The line id of every nonzero u of V, in vector-index order: where a per-line array is read per u."""
    return np.array([_line_id(F, u) for u in itertools.product(range(F.q), repeat=n) if any(u)], dtype=np.int64)


def _span_points(F, rows):
    """Every point of the row span, with scalar field arithmetic."""
    n = len(rows[0]) if len(rows) else 0
    for coeffs in itertools.product(range(F.q), repeat=len(rows)):
        point = [0] * n
        for c, row in zip(coeffs, rows):
            point = [F.add(x, F.mul(c, int(v))) for x, v in zip(point, row)]
        yield point


@pytest.mark.parametrize("block", [1, sp._BLOCK])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_line_listing_matches_normalised_points(q, block, monkeypatch):
    """_line_blocks' line ids of each canonical basis against its span's nonzero points, normalised by scalar inv."""
    monkeypatch.setattr(sp, "_BLOCK", block)  # 1: one space per block
    F = field_for_order(q)
    rng = np.random.default_rng(q + 53)
    spaces = 0
    for n in range(1, 5):
        for k in range(min(n, 3) + 1):
            subs = [subspace_from_rows(F, n, _random_of_rank(F, rng, n, k).T) for _ in range(3)]
            subs.append(subs[0])  # a repeated space
            bases, dims = _stack(n, subs)
            got = np.concatenate([at for _, at in sp._line_blocks(F, bases, k)])
            assert got.shape == (len(subs), (q**k - 1) // (q - 1)) and (dims == k).all()
            for sub, ids in zip(subs, got.tolist()):
                want = {_line_id(F, pt) for pt in _span_points(F, sub.rows.tolist()) if any(pt)}
                assert sorted(ids) == sorted(want), (q, n, k, sub.rows.tolist())
                spaces += 1
    assert spaces == 4 * sum(min(n, 3) + 1 for n in range(1, 5))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_line_table_matches_per_line_scalar_oracle(q, monkeypatch):
    """One lead-1 element per line, ascending, with formcore's rank and linalg.rref's rows, and no charge."""
    monkeypatch.setattr(sp, "_BLOCK", 5)  # the lines split into blocks
    monkeypatch.setattr(sp, "charge", lambda *args: pytest.fail("_line_table charged"))
    F = field_for_order(q)
    for d, kind in ((1, "symmetric"), (3, "general"), (3, "alternating")):
        M = sp.random_subspace(F, 3, d, kind, q)
        coeffs, ranks, reduced = sp._line_table(M)
        assert coeffs.tolist() == linalg.code_vectors(q, d, sp.line_representatives(q, d)).tolist()
        for c, r, red in zip(coeffs, ranks.tolist(), reduced):
            f = element(M, c)
            assert r == fc.rank(f), (kind, c)
            assert red[:r].tolist() == linalg.rref(F, f.entries)[0].tolist() and not red[r:].any(), (kind, c)


def test_a_walk_is_charged_once_per_call(monkeypatch):
    """A fresh subspace's first rank_spectrum builds its line table and is charged q^d n^2 once, like the second."""
    steps = []
    charge = sp.charge
    monkeypatch.setattr(sp, "charge", lambda items, cell, budget, what: steps.append(items * cell)
                        or charge(items, cell, budget, what))
    M = cons.alternating_pencil(F3, 4)  # a new subspace: nothing is stored on it yet
    walk = 3**M.dim * 4 * 4
    for _ in range(2):
        sp.rank_spectrum(M)
        assert steps == [walk]
        steps.clear()
    list(sp.enumerate_nonzero(M))
    assert steps == [walk]
    fresh = cons.alternating_pencil(F3, 4)
    with pytest.raises(sp.BudgetExceeded):
        sp.rank_spectrum(fresh, budget=walk - 1)
    assert sp.rank_spectrum(fresh, budget=walk) == sp.rank_spectrum(M)


# --- rank spectra ----------------------------------------------------------------


def _closed_form_rank_counts(kind, q, n):
    """Classical counts of the rank-r matrices in Bil(V), Alt(V) or Symm(V).

    Bil: Landsberg's product; Alt and Symm: MacWilliams, "Orthogonal
    matrices over finite fields", Amer. Math. Monthly 1969.
    """
    from fractions import Fraction
    from math import prod

    counts = {}
    for r in range(1, n + 1):
        if kind == "general":
            c = Fraction(prod((q**n - q**i) ** 2 for i in range(r)), prod(q**r - q**i for i in range(r)))
        elif kind == "alternating":
            if r % 2:
                continue
            s = r // 2
            c = Fraction(q ** (s * (s - 1)) * prod(q ** (n - i) - 1 for i in range(2 * s)),
                         prod(q ** (2 * i) - 1 for i in range(1, s + 1)))
        else:
            c = prod((Fraction(q ** (2 * i), q ** (2 * i) - 1) for i in range(1, r // 2 + 1)), start=Fraction(1))
            c *= prod(q ** (n - i) - 1 for i in range(r))
        assert c.denominator == 1
        if c:
            counts[r] = int(c)
    return counts


ORACLE_POINTS = (
    [("general", q, 2) for q in (2, 3, 4, 5)] + [("general", q, 3) for q in (2, 3)]
    + [("alternating", q, n) for q in (2, 3, 4, 5) for n in (3, 4)] + [("alternating", q, 5) for q in (2, 3)]
    + [("symmetric", q, n) for q in (2, 3, 4, 5) for n in (2, 3)] + [("symmetric", q, 4) for q in (2, 3)]
)


@pytest.mark.parametrize("kind,q,n", ORACLE_POINTS)
def test_spectrum_of_full_kind_space_matches_closed_form(kind, q, n):
    M = sp.full_kind_space(field_for_order(q), n, kind)
    assert dict(sp.rank_spectrum(M).counts) == _closed_form_rank_counts(kind, q, n)


def test_spectrum_full_alternating_n3_q2():
    spec = sp.rank_spectrum(sp.full_kind_space(F2, 3, "alternating"))
    assert spec.ranks == (2,) and spec.m == 2 and spec.r == 1
    assert spec.count(2) == 7


def test_spectrum_block_example():
    M = cons.block_symmetric(F3, 4, 2)
    spec = sp.rank_spectrum(M)
    assert spec.ranks == (2, 4) and M.dim == 4


def test_spectrum_counts_sum_to_all_elements():
    M = cons.alternating_pencil(F5, 3)
    spec = sp.rank_spectrum(M)
    assert sum(c for _, c in spec.counts) == 5**M.dim - 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_spectrum_counts_match_per_element_ranks(q):
    """The line-table spectrum against formcore.rank on every element of M."""
    fld = field_for_order(q)
    for n, kind, d in itertools.product((3, 4), sp.KINDS, (0, 1, 2, 3)):
        if q**d > 250 or d > sp.kind_space_dim(n, kind):
            continue
        M = sp.random_subspace(fld, n, d, kind, seed=100 * q + 10 * n + d)
        want = Counter(fc.rank(f) for _, f in sp.enumerate_nonzero(M))
        assert dict(sp.rank_spectrum(M).counts) == dict(want), (n, kind, d)


def test_subspace_spectrum_containment():
    rng = np.random.default_rng(8)
    for _ in range(10):
        M = sp.random_subspace(F3, 3, 3, "general", int(rng.integers(1 << 30)))
        sub = sp.span([M.basis[0], M.basis[1]])
        assert set(sp.rank_spectrum(sub).ranks) <= set(sp.rank_spectrum(M).ranks)


# --- kernels M_u ------------------------------------------------------------------


def test_kernel_at_zero_vector_is_everything():
    M = sp.full_kind_space(F3, 3, "alternating")
    assert sp.kernel_at(M, (0, 0, 0), "left").dim == M.dim


def test_kernel_at_alt_n3_q2_and_cross_check():
    M = sp.full_kind_space(F2, 3, "alternating")
    u = (1, 0, 0)
    K = sp.kernel_at(M, u, "left")
    assert K.dim == 1
    # cross-check against filtering the full enumeration
    by_filter = [
        f for _, f in sp.enumerate_nonzero(M)
        if not np.asarray(F2.matmul_arr(np.array([u]), f.entries)).any()
    ]
    assert len(by_filter) == 2**K.dim - 1
    for f in by_filter:
        assert K.contains_form(f)


def test_kernel_at_common_radical_returns_everything():
    M = cons.embed_with_radical(cons.symmetric_trace(F3, 2), 3)
    assert sp.kernel_at(M, (0, 0, 1), "left").dim == M.dim


def test_kernel_dims_all_agrees_with_kernel_at():
    M = cons.block_symmetric(F3, 4, 1)
    dims = sp.kernel_dims_all(M, "left")[_lines_of_V(F3, 4)]  # each nonzero u reads its line's entry
    vecs = linalg.code_vectors(3, 4)[1:]
    assert dims.tolist() == [sp.kernel_at(M, u, "left").dim for u in vecs]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_kernel_dims_all_matches_kernel_at_everywhere(q):
    """Every nonzero u and both sides against one kernel_at solve each: u reads its line's entry."""
    F = field_for_order(q)
    n = 3
    rng = np.random.default_rng(100 + q)
    draws = [sp.span([], field=F, n=n)] + [
        sp.random_subspace(F, n, int(rng.integers(1, 4)), kind, int(rng.integers(1 << 30))) for kind in sp.KINDS
    ]
    vecs, line = linalg.code_vectors(q, n)[1:], _lines_of_V(F, n)
    for M in draws:
        for side in ("left", "right"):
            dims = sp.kernel_dims_all(M, side)
            assert dims.shape == ((q**n - 1) // (q - 1),) and not dims.flags.writeable
            assert dims[line].tolist() == [sp.kernel_at(M, u, side).dim for u in vecs]
            assert sp.kernel_dims_all(M, side) is dims
        if M.dim:
            with pytest.raises(sp.BudgetExceeded):  # the stored array does not skip the charge
                sp.kernel_dims_all(M, "left", budget=q**n * M.dim * n - 1)


def test_kernel_table_matches_kernel_at(monkeypatch):
    """Each line's M_u, read off kernel_table, against one kernel_at solve per line and side."""
    monkeypatch.setattr(sp, "_BLOCK", 3)  # the fill spans several blocks
    members = [cons.build(req)[0] for req in _catalogue_up_to(729)]  # built here, so no table is stored yet
    rng = np.random.default_rng(31)
    for q in (2, 3, 4, 9):
        F = field_for_order(q)
        members.append(sp.span([], field=F, n=3))  # the zero subspace: systems of shape (L, n, 0)
        members += [sp.random_subspace(F, 3, int(rng.integers(1, 4)), kind, int(rng.integers(1 << 30)))
                    for kind in sp.KINDS]
    for M in members:
        q, n, d = M.field.q, M.n, M.dim
        vecs = linalg.code_vectors(q, n, sp.line_representatives(q, n))
        for side in ("left", "right"):
            dims, reduced = sp.kernel_table(M, side)
            assert reduced.shape == (len(vecs), n, d) and sp.kernel_dims_all(M, side) is dims
            found = sp.reduced_null_spaces(M.field, reduced, d - dims)
            for u, i in zip(vecs, found.ids):
                assert M.subspace_from_coefficients(_rows(found, i)) == sp.kernel_at(M, u, side), (M, side, u)
    assert {M.field.q for M in members} >= {2, 3, 4, 5, 9} and any(M.dim == 0 for M in members)


def test_kernel_lower_bounds_lemmas():
    # dim M_u >= dim M - n always; >= dim M - m with a max-rank element
    # in M_u and q >= m+1; alternating refinement uses n-1.
    rng = np.random.default_rng(11)
    for kind in ("general", "symmetric", "alternating"):
        for _ in range(8):
            d = int(rng.integers(1, 4))
            M = sp.random_subspace(F3, 3, d, kind, int(rng.integers(1 << 30)))
            spec = sp.rank_spectrum(M)
            m = spec.m
            for u in linalg.code_vectors(3, 3)[1:]:
                K = sp.kernel_at(M, u, "left")
                assert K.dim >= M.dim - 3
                if kind == "alternating":
                    assert K.dim >= M.dim - 2
                if 3 >= m + 1 and K.dim:
                    kspec = sp.rank_spectrum(K)
                    if m in kspec.ranks:
                        assert K.dim >= M.dim - m


def test_kernel_equality_case_shares_radical():
    # when dim M_u = dim M - m, all max-rank elements of M_u share one
    # right radical (checked where the situation actually occurs)
    M = sp.full_kind_space(F3, 3, "alternating")
    spec = sp.rank_spectrum(M)
    m = spec.m
    hit = 0
    for u in linalg.code_vectors(3, 3)[1:]:
        K = sp.kernel_at(M, u, "left")
        if K.dim == M.dim - m and K.dim > 0:
            rads = {
                fc.right_radical(f).key()
                for _, f in sp.enumerate_nonzero(K)
                if fc.rank(f) == m
            }
            assert len(rads) <= 1
            hit += 1
    assert hit > 0


# --- the line table and the kernel-bound incidence -----------------------------------


def _rows(found, j):
    """The canonical basis of null space j of a NullSpaces: its rows of the stack."""
    return found.bases[j, :found.dims[j]]


def _space(F, found, j):
    """Null space j of a NullSpaces as a formcore Subspace, for comparison with the formcore oracles."""
    return fc.Subspace(F, found.bases.shape[2], _rows(found, j))


def _stack(n, spaces):
    """Subspaces of one V as a (bases, dims) stack, each basis padded with zero rows to n."""
    bases = np.zeros((len(spaces), n, n), dtype=np.int64)
    for basis, sub in zip(bases, spaces):
        basis[:sub.dim] = sub.rows
    return bases, np.array([sub.dim for sub in spaces], dtype=np.int64)


def _scalar_form(M, coeffs):
    """sum_j c_j B_j entry by entry with scalar field arithmetic."""
    F, n = M.field, M.n
    rows = [[0] * n for _ in range(n)]
    for c, b in zip(coeffs, M.basis):
        for i in range(n):
            for j in range(n):
                rows[i][j] = F.add(rows[i][j], F.mul(c, int(b.entries[i, j])))
    return fc.GramForm(F, rows)


@pytest.mark.parametrize(
    "make",
    [
        lambda: sp.full_kind_space(F3, 3, "alternating"),
        lambda: cons.block_symmetric(F3, 4, 2),
        lambda: cons.alternating_pencil(F4, 4),
        lambda: sp.random_subspace(F5, 3, 3, "general", 4),
        lambda: cons.build(cons.ConstructionRequest("column-family", {"q": 2, "m": 2, "r": 2, "ext": 2}))[0],
        lambda: sp.span([], field=F3, n=2),
    ],
)
def test_line_table_rows_match_formcore(make):
    M = make()
    q, d = M.field.q, M.dim
    table = sp.lines(M)
    coeffs, ranks, left, right = table
    lead_one = [
        c for c in itertools.product(range(q), repeat=d) if any(c) and c[next(i for i, v in enumerate(c) if v)] == 1
    ]
    assert len(coeffs) == len(ranks) == len(left.ids) == len(right.ids) == (q**d - 1) // (q - 1)
    assert [tuple(c) for c in coeffs.tolist()] == lead_one
    for c, rk, li, ri in zip(coeffs.tolist(), ranks, left.ids, right.ids):
        f = _scalar_form(M, c)
        assert f == M.form_from_coefficients(c)
        assert rk == fc.rank(f)
        assert _space(M.field, left, li) == fc.left_radical(f)
        assert _space(M.field, right, ri) == fc.right_radical(f)
    assert sp.lines(M) is table


@pytest.mark.parametrize("block", [3, sp._BLOCK])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_null_spaces_match_per_matrix_null_spaces(q, block, monkeypatch):
    """Distinct null spaces and their ids against one right_null_space per matrix and Subspace equality."""
    monkeypatch.setattr(sp, "_BLOCK", block)  # 3 makes every stack below span several blocks
    F = field_for_order(q)
    rng = np.random.default_rng(q)
    for rows, cols in itertools.product(range(5), range(1, 5)):
        distinct = rng.integers(0, q, size=(3, rows, cols))
        distinct[0] = 0
        if rows:
            distinct[1, -1] = distinct[1, 0]  # a rank-deficient one
        picks = rng.integers(0, 3, size=10)
        mats = distinct[picks]
        # scaling a matrix by a nonzero scalar keeps its null space
        scales = rng.integers(1, q, size=10)
        mats = np.stack([F.mul_arr(np.full_like(m, c), m) for m, c in zip(mats, scales)])
        for stack in (mats, mats[:0]):
            got = sp.null_spaces(F, stack)
            assert len(got.ids) == len(stack)
            # read-only fields, one stack zero past each basis
            assert got.bases.shape == (len(got.dims), cols, cols) and not any(a.flags.writeable for a in got)
            assert not got.bases[np.arange(cols)[None, :] >= got.dims[:, None]].any()
            for i, mat in enumerate(stack):
                assert _space(F, got, got.ids[i]) == fc.Subspace(F, cols, linalg.right_null_space(F, mat))
            spaces = [_space(F, got, j) for j in range(len(got.dims))]
            assert all(a != b for a, b in itertools.combinations(spaces, 2))
            assert len(got.first) == len(got.dims)
            assert all(a < b for a, b in zip(got.first.tolist(), got.first.tolist()[1:]))
            assert got.ids[got.first].tolist() == list(range(len(got.dims)))
            for j, at in enumerate(got.first.tolist()):
                assert j not in got.ids[:at].tolist()
        # row-equivalent matrices that are not scalar multiples share one id: E A with E invertible,
        # and C X with X the reduced rows of A and C of full column rank (extra dependent rows)
        if rows:
            base = distinct[1]
            X = linalg.rref(F, base)[0]
            E = _random_of_rank(F, rng, rows, rows)
            C = _random_of_rank(F, rng, rows, len(X))
            equivalent = [base, F.matmul_arr(E, base), F.matmul_arr(C, X)]
            stack = np.stack([m for eq in equivalent for m in (eq, distinct[2])])  # 2 apart: across blocks of 3
            got = sp.null_spaces(F, stack)
            assert len(set(got.ids[::2].tolist())) == 1
            assert _space(F, got, got.ids[0]) == fc.Subspace(F, cols, linalg.right_null_space(F, base))
    # a matrix with no columns has the 0-dimensional null space: one space for the whole stack
    for rows in range(3):
        got = sp.null_spaces(F, np.zeros((2, rows, 0), dtype=np.int64))
        assert got.bases.shape == (1, 0, 0) and got.dims.tolist() == [0]
        assert got.ids.tolist() == [0, 0] and got.first.tolist() == [0]
        got = sp.null_spaces(F, np.zeros((0, rows, 0), dtype=np.int64))
        assert got.bases.shape == (0, 0, 0) and len(got.dims) == len(got.ids) == len(got.first) == 0


def _random_of_rank(F, rng, rows, rank):
    """A random rows x rank matrix of full column rank."""
    while True:
        mat = rng.integers(0, F.q, size=(rows, rank))
        if linalg.rank(F, mat) == rank:
            return mat


def _brute_incidence(M, side, m):
    """(dim M_u, M_u holds a rank-m element, those share one radical) per nonzero u, solved at each u."""
    other = fc.right_radical if side == "left" else fc.left_radical
    out = []
    for u in itertools.product(range(M.field.q), repeat=M.n):
        if not any(u):
            continue
        K = sp.kernel_at(M, u, side)
        holds = K.dim > 0 and m in sp.rank_spectrum(K).ranks
        rads = {other(f).key() for _, f in sp.enumerate_nonzero(K) if fc.rank(f) == m} if holds else set()
        out.append((K.dim, holds, len(rads) <= 1))
    return out


def _catalogue_up_to(points):
    """The catalogue members whose V has at most `points` vectors."""
    for req in catalogue_requests():
        M, _ = cons.build(req)
        if M.field.q**M.n <= points:
            yield req


@pytest.mark.parametrize(
    "req",
    list(_catalogue_up_to(729)),
    ids=lambda r: r.name + "".join(f"-{k}{v}" for k, v in sorted(r.params.items())),
)
def test_max_rank_incidence_matches_brute_force(req):
    _assert_incidence_matches_brute_force(cons.build(req)[0])


def _assert_incidence_matches_brute_force(M):
    m, line = sp.rank_spectrum(M).m, _lines_of_V(M.field, M.n)
    for side in ("left", "right"):
        dims = sp.kernel_dims_all(M, side)
        holds, shared = sp.max_rank_incidence(M, side)
        assert dims.shape == holds.shape == shared.shape == ((M.field.q**M.n - 1) // (M.field.q - 1),)
        got = list(zip(dims[line].tolist(), holds[line].tolist(), shared[line].tolist()))  # per nonzero u
        assert got == _brute_incidence(M, side, m)


# (n, d, kind, seed) of random GF(2) subspaces whose orthogonality scan stops early
ORTHOGONALITY_DRAWS = [(4, 4, "general", 3), (4, 3, "general", 0), (5, 3, "symmetric", 23), (4, 2, "symmetric", 5)]


@pytest.mark.parametrize("block", [2, sp._BLOCK])
@pytest.mark.parametrize("draw", ORTHOGONALITY_DRAWS)
def test_max_rank_incidence_matches_brute_force_on_draws(draw, block, monkeypatch):
    monkeypatch.setattr(sp, "_BLOCK", block)  # 2 spreads one radical per block
    _assert_incidence_matches_brute_force(sp.random_subspace(F2, *draw))


# --- one side for symmetric and alternating M -------------------------------------------


def _one_side_draws():
    """Random symmetric and alternating subspaces over GF(q), q in {2, 3, 4, 5, 9}."""
    rng = np.random.default_rng(19)
    out = []
    for q in (2, 3, 4, 5, 9):
        for kind in ("symmetric", "alternating"):
            for n in (3, 4) if q**4 <= 625 else (3,):
                d = int(rng.integers(1, min(sp.kind_space_dim(n, kind), 4) + 1))
                out.append(sp.random_subspace(field_for_order(q), n, d, kind, int(rng.integers(1 << 30))))
    return out


def _assert_sides_match_per_line_and_per_u_solves(M):
    """lines against plain-Python null spaces of each line's form, kernel_dims_all(M, "right") against kernel_at."""
    F = M.field
    coeffs, _, left, right = sp.lines(M)
    for i, c in enumerate(coeffs.tolist()):
        g = _scalar_form(M, c).entries
        assert _rows(left, left.ids[i]).tolist() == linalg.left_null_space(F, g).tolist(), (M, c)
        assert _rows(right, right.ids[i]).tolist() == linalg.right_null_space(F, g).tolist(), (M, c)
    vecs, line = linalg.code_vectors(F.q, M.n)[1:], _lines_of_V(F, M.n)
    assert sp.kernel_dims_all(M, "right")[line].tolist() == [sp.kernel_at(M, u, "right").dim for u in vecs], M


def test_one_side_matches_per_line_and_per_u_solves(catalogue):
    """Symmetric and alternating M solve one side for both: every such catalogue member and random draws."""
    members = [M for _, M, _ in catalogue if M.kind != "general"] + _one_side_draws()
    assert {M.field.q for M in members} >= {2, 3, 4, 5, 9}
    for M in members:
        if M.field.p == 2 and M.kind == "alternating":  # alternating is symmetric in characteristic 2
            assert all((f.entries == f.entries.T).all() for f in M.basis)
        _assert_sides_match_per_line_and_per_u_solves(M)
        if M.dim:  # one result stands for both sides, and every call is still charged
            assert sp.lines(M)[2] is sp.lines(M)[3]
            assert sp.kernel_dims_all(M, "left") is sp.kernel_dims_all(M, "right")
            assert sp.max_rank_incidence(M, "left") is sp.max_rank_incidence(M, "right")
            steps = M.field.q**M.dim * M.n**2  # what line_table charges
            with pytest.raises(sp.BudgetExceeded):
                sp.max_rank_incidence(M, "right", budget=steps - 1)


def test_general_members_keep_two_sides(catalogue):
    """Column families have different left and right radicals and M_u: one side must not stand for both."""
    members = [M for req, M, _ in catalogue if req.name == "column-family" and M.field.q**M.n <= 729]
    assert members and all(M.kind == "general" for M in members)
    dims_differ = []
    for M in members:
        _assert_sides_match_per_line_and_per_u_solves(M)
        _, _, left, right = sp.lines(M)
        assert [_rows(left, i).tolist() for i in left.ids] != [_rows(right, i).tolist() for i in right.ids]
        assert sp.max_rank_incidence(M, "left") is not sp.max_rank_incidence(M, "right")
        dims_differ.append(sp.kernel_dims_all(M, "left").tolist() != sp.kernel_dims_all(M, "right").tolist())
    assert any(dims_differ)  # Bil(V) itself (r = 2) has the same dim M_u on both sides


@pytest.mark.parametrize("block", [3, sp._BLOCK])
def test_right_radicals_read_off_the_stored_stack(block, monkeypatch):
    """The reduced Gram stack line_table returns gives the null spaces a fresh elimination gives."""
    monkeypatch.setattr(sp, "_BLOCK", block)  # 3: the walk's blocks and null_spaces' blocks differ
    members = [
        sp.full_kind_space(F3, 2, "general"),
        sp.random_subspace(F5, 3, 3, "general", 4),
        sp.span([identity_form(F4, 3)]),  # every line of full rank
        cons.alternating_pencil(F4, 4),
        cons.block_symmetric(F3, 4, 2),
        sp.span([], field=F3, n=2),
    ]
    full_rank_lines = 0
    for M in members:
        coeffs, ranks, reduced = sp.line_table(M, None, "t")
        grams = sp.flat_forms_for(M, coeffs).reshape(-1, M.n, M.n)
        assert [a.tolist() for a in linalg.batch_rref(M.field, grams)] == [reduced.tolist(), ranks.tolist()], M
        fresh = sp.null_spaces(M.field, grams)
        stored = sp.reduced_null_spaces(M.field, reduced, ranks)
        right = sp.lines(M)[3]
        for got in (stored, right):
            assert [_rows(got, j).tolist() for j in range(len(got.dims))] == [
                _rows(fresh, j).tolist() for j in range(len(fresh.dims))], M
            assert got.bases.tolist() == fresh.bases.tolist() and got.dims.tolist() == fresh.dims.tolist(), M
            assert got.ids.tolist() == fresh.ids.tolist() and got.first.tolist() == fresh.first.tolist(), M
        full = ranks == M.n
        assert all(fresh.dims[i] == 0 for i in fresh.ids[full])
        full_rank_lines += int(full.sum())
    assert full_rank_lines > 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: cons.build(cons.ConstructionRequest("column-family", {"q": 2, "m": 2, "r": 2, "ext": 2}))[0],
        lambda: cons.block_symmetric(F3, 4, 2),
        lambda: cons.alternating_pencil(F3, 3),
        lambda: sp.span([], field=F3, n=2),
    ],
)
def test_every_stored_array_is_read_only(make):
    """Nothing a stored result hands out can be written, so no caller can change what later calls read."""
    M = make()
    spec = sp.rank_spectrum(M)
    coeffs, ranks, left, right = sp.lines(M)
    handed = [*sp.line_table(M, None, "t"), coeffs, ranks, *left, *right]
    for side in ("left", "right"):
        handed += [sp.kernel_dims_all(M, side), *sp.max_rank_incidence(M, side)]
    if M.kind != "general":
        handed.append(sp.isotropic_set(M))
        assert handed[-1].shape == ((3**M.n - 1) // 2,)  # one entry per line of V
    assert len(handed) >= 19
    for arr in handed:
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable
        if arr.size:
            with pytest.raises(ValueError):
                arr.flat[0] = arr.flat[0]
    assert sp.rank_spectrum(M) == spec


def test_isotropic_set_is_stored_and_still_charged():
    M = cons.block_symmetric(F3, 4, 2)
    short = 3**4 * M.dim * 4 - 1  # one step under what isotropic_set charges
    with pytest.raises(sp.BudgetExceeded):
        sp.isotropic_set(M, budget=short)
    iso = sp.isotropic_set(M)
    assert sp.isotropic_set(M) is iso and not iso.flags.writeable
    with pytest.raises(sp.BudgetExceeded):  # the stored set does not skip the charge
        sp.isotropic_set(M, budget=short)


# --- V(M) --------------------------------------------------------------------------


def test_v_set_of_full_bilinear_space_is_everything():
    for n in (2, 3):
        M = sp.full_kind_space(F2, n, "general")
        rep = v_set(M, "left")
        assert rep.subspace_flag and len(rep.points) == 2**n


def test_v_set_single_invertible_form():
    rep = v_set(sp.span([identity_form(F3, 2)]), "left")
    assert rep.subspace_flag
    assert rep.points == ((0, 0),)
    assert rep.subspace.dim == 0


def test_v_set_union_of_two_lines_is_not_closed():
    # search-found witness: span{I, diag(1, 2)} over GF(3) has
    # V(M)^L = two crossing lines, not a subspace
    M = sp.span([identity_form(F3, 2), fc.GramForm(F3, [[1, 0], [0, 2]])])
    rep = v_set(M, "left")
    assert not rep.subspace_flag
    assert set(rep.points) == {(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)}
    assert rep.subspace is None


def test_v_set_subspace_under_lemma_hypotheses():
    # constant rank m with dim M >= 2m+1 and q >= m+1 forces closure
    M = cons.bilinear_column_family(F3, 3, 1)  # constant rank 1, dim 3 >= 3
    for side in ("left", "right"):
        assert v_set(M, side).subspace_flag


# --- I(M), A_u, total isotropy ---------------------------------------------------


def _isotropic_vectors(M):
    """The nonzero w of V whose line `isotropic_set` marks, in vector-index order: every vector reads its line."""
    iso = sp.isotropic_set(M)
    return [u for u in itertools.product(range(M.field.q), repeat=M.n) if any(u) and iso[_line_id(M.field, u)]]


def _isotropic_set_cases():
    """Seeded symmetric and alternating draws and the zero subspace, q^n <= 20000, and the odd-q symmetric catalogue."""
    rng = np.random.default_rng(23)
    out = []
    for q in (3, 5, 7, 9, 25, 27):
        F = field_for_order(q)
        for n in (n for n in (2, 3, 4) if q**n <= 20000):
            out.append(sp.span([], field=F, n=n))
            for kind in ("symmetric", "alternating"):
                d = int(rng.integers(1, min(sp.kind_space_dim(n, kind), 3) + 1))
                out.append(sp.random_subspace(F, n, d, kind, int(rng.integers(1 << 30))))
    for req in catalogue_requests(qs=(3, 5)):
        M, _ = cons.build(req)
        if M.symmetric and M.field.p != 2:
            out.append(M)
    return out


def test_isotropic_set_matches_scalar_brute_force():
    """Every nonzero w: f(w, w) = 0 for every basis form, by formcore.evaluate, iff its line's entry is set."""
    cases = _isotropic_set_cases()
    assert {(M.field.q, M.kind) for M in cases} >= set(itertools.product((3, 5, 7, 9, 25, 27), sp.KINDS[1:]))
    marked = 0
    for M in cases:
        F, n, basis = M.field, M.n, M.basis
        iso = sp.isotropic_set(M)
        assert iso.shape == ((F.q**n - 1) // (F.q - 1),) and iso.dtype == bool and not iso.flags.writeable, M
        for w in itertools.product(range(F.q), repeat=n):
            if any(w):
                assert iso[_line_id(F, w)] == all(fc.evaluate(g, w, w) == 0 for g in basis), (M, w)
        marked += int(iso.sum())
    assert marked  # some isotropic lines were found


def test_isotropic_set_identity_form():
    iso = sp.isotropic_set(sp.span([identity_form(F3, 2)]))
    assert iso.shape == (4,) and not iso.any()


def test_isotropic_set_zero_subspace_is_everything():
    M = sp.span([], field=F3, n=2)
    iso = sp.isotropic_set(M)
    assert iso.shape == (4,) and iso.all()
    assert _isotropic_vectors(M) == [u for u in itertools.product(range(3), repeat=2) if any(u)]  # all 8


def test_isotropic_set_block_example_contains_u():
    M = cons.block_symmetric(F3, 4, 2)
    iso = sp.isotropic_set(M)
    # the top block U = span{e1, e2} is totally isotropic by the block shape
    for v in [(1, 0, 0, 0), (0, 1, 0, 0), (1, 2, 0, 0), (2, 1, 0, 0)]:
        assert iso[_line_id(F3, v)]
        assert v in _isotropic_vectors(M)


def test_isotropic_set_rejects_wrong_inputs():
    with pytest.raises(ValueError, match="odd"):
        sp.isotropic_set(sp.span([identity_form(F2, 2)]))
    with pytest.raises(ValueError, match="symmetric"):
        sp.isotropic_set(sp.span([fc.GramForm(F3, [[0, 1], [0, 0]])]))


def _batched_annihilators(M, vecs):
    """A_u for each row u of vecs as the isotropic-partition checker solves it: one stack of systems u^T G_i."""
    return sp.null_spaces(M.field, sp.kernel_matrices(M, vecs, "left").transpose(0, 2, 1))


def _points(F, found, i):
    """The points of the null space of matrix i of a NullSpaces, as a set of tuples."""
    j = found.ids[i]
    return set(map(tuple, points(fc.Subspace(F, found.bases.shape[2], found.bases[j, :found.dims[j]])).tolist()))


def test_isotropic_partition_classes_meet_trivially():
    # A_u / A_w are equal or intersect in 0 (pairwise intersection scan), every isotropic u by brute force
    M = cons.embed_with_radical(cons.symmetric_trace(F3, 2), 3)
    subs = {frozenset(brute_annihilator(M, u)) for u in _isotropic_vectors(M)}
    assert subs
    subs = list(subs)
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            assert subs[i] & subs[j] == {(0, 0, 0)}


def test_annihilator_examples():
    M = sp.span([identity_form(F3, 3)])
    vecs = np.array([(0, 0, 0), (1, 0, 0)])
    found = _batched_annihilators(M, vecs)
    for i, u in enumerate(vecs.tolist()):
        assert _points(F3, found, i) == brute_annihilator(M, u)
    assert found.dims[found.ids[0]] == 3
    zero = sp.span([], field=F4, n=3)
    assert _points(F4, _batched_annihilators(zero, [(1, 0, 0)]), 0) == brute_annihilator(zero, (1, 0, 0))
    assert _batched_annihilators(zero, [(1, 0, 0)]).dims.tolist() == [3]
    assert found.bases[found.ids[1], :found.dims[found.ids[1]]].tolist() == [[0, 1, 0], [0, 0, 1]]


def test_annihilator_dim_equals_kernel_dim_at_full_dimension():
    # duality: dim A_u = dim M_u whenever dim M = n
    req = cons.ConstructionRequest("column-family", {"q": 3, "m": 3, "r": 1, "ext": 2})
    M, _ = cons.build(req)
    assert M.dim == M.n
    vecs = linalg.code_vectors(3, 6)[1:50]
    found = _batched_annihilators(M, vecs)
    for i, u in enumerate(vecs.tolist()):
        dim = sp.kernel_at(M, u, "left").dim
        assert len(brute_annihilator(M, u)) == 3**dim
        assert found.dims[found.ids[i]] == dim


# --- radical spreads ---------------------------------------------------------------


@pytest.mark.parametrize("block", [4, sp._BLOCK])
@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_partition_status_matches_point_by_point_containment(q, block, monkeypatch):
    """Hits per nonzero vector counted with `contains` over all of V, against the stacked line listings."""
    monkeypatch.setattr(sp, "_BLOCK", block)  # 4 splits every dimension's stack into blocks
    F = field_for_order(q)
    n = 3
    rng = np.random.default_rng(q + 31)
    drawn = [fc.Subspace(F, n, linalg.rref(F, _random_of_rank(F, rng, n, k).T)[0]) for k in (1, 1, 1, 2, 2, 3)]
    cases = [
        [],
        [zero_subspace(F, n)],
        drawn,  # mixed dimensions
        drawn[:3] + drawn[:1],  # a repeated space
        [zero_subspace(F, n)] + drawn[3:5] * 2,
        [subspace_from_rows(F, n, [e]) for e in np.eye(n, dtype=np.int64)],  # the coordinate axes
    ]
    vecs, line = linalg.code_vectors(q, n)[1:], _lines_of_V(F, n)
    for spaces in cases:
        hits = np.array([sum(contains(sub, v) for sub in spaces) for v in vecs])
        pairwise_trivial, union = sp.partition_status(F, *_stack(n, spaces))
        assert pairwise_trivial == bool((hits <= 1).all())
        assert union.shape == ((q**n - 1) // (q - 1),)
        assert np.flatnonzero(union).tolist() == sorted(set(line[hits > 0].tolist()))  # the hit vectors' lines
    assert not sp.partition_status(F, *_stack(n, drawn[:3] + drawn[:1]))[0]


def test_radical_spread_alt_n3_q3():
    rep = sp.radical_spread(sp.full_kind_space(F3, 3, "alternating"))
    assert rep.t == 13 == (3**3 - 1) // (3 - 1)
    assert rep.covers and rep.pairwise_trivial
    assert len(rep.radicals.dims) == 13 and all(k == 1 for k in rep.radicals.dims.tolist())


def test_radical_spread_common_radical():
    M = cons.embed_with_radical(
        sp.span([fc.GramForm(F3, [[0, 1], [2, 0]])]), 3
    )
    rep = sp.radical_spread(M)
    assert rep.t == 1 and not rep.covers and rep.pairwise_trivial


def test_radical_spread_trace_construction_n6():
    req = cons.ConstructionRequest("alt-odd", {"q": 2, "k": 3, "ext": 2})
    M, _ = cons.build(req)
    rep = sp.radical_spread(M)
    assert rep.t == (2**6 - 1) // (2**2 - 1) == 21
    assert rep.covers and rep.pairwise_trivial


def test_radical_spread_input_validation():
    with pytest.raises(ValueError, match="alternating"):
        sp.radical_spread(sp.span([identity_form(F3, 2)]))
    M = sp.full_kind_space(F3, 4, "alternating")  # spectrum {2, 4}
    with pytest.raises(ValueError, match="constant rank"):
        sp.radical_spread(M)


# --- counting identity property ------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: sp.full_kind_space(F2, 3, "alternating"),
        lambda: cons.alternating_pencil(F5, 4),
        lambda: cons.symmetric_trace(F4, 2),
        lambda: cons.build(cons.ConstructionRequest("column-family", {"q": 2, "m": 2, "r": 1, "ext": 2}))[0],
    ],
)
def test_counting_identity_exact(make):
    M = make()
    spec = sp.rank_spectrum(M)
    assert spec.is_constant_rank
    q, d, n, m = M.field.q, M.dim, M.n, spec.m
    dims = sp.kernel_dims_all(M, "left")[_lines_of_V(M.field, n)]  # every nonzero u reads its line's entry
    rhs = sum(q ** int(k) - 1 for k in dims)
    assert (q**d - 1) * (q ** (n - m) - 1) == rhs


# --- sampling -------------------------------------------------------------------------


def test_random_subspace_deterministic_and_independent():
    a = sp.random_subspace(F3, 3, 2, "symmetric", 99)
    b = sp.random_subspace(F3, 3, 2, "symmetric", 99)
    assert a.key() == b.key()
    assert linalg.rank(F3, a.basis_flat()) == 2


def test_random_subspace_full_kind_space():
    M = sp.random_subspace(F3, 3, 3, "alternating", 1)
    assert M.key() == sp.full_kind_space(F3, 3, "alternating").key()


# (q, n, d, kind, seed); 13 of them reject their first draw as dependent
_PINNED_DRAWS = [
    (q, n, sp.kind_space_dim(n, kind) if d is None else d, kind, seed)
    for q, n in ((2, 2), (2, 3), (3, 2), (4, 2), (5, 3), (9, 2))
    for kind, d in (("general", None), ("symmetric", None), ("alternating", 1))
    for seed in (0, 1)
] + [(3, 2, 0, "general", 5)]


def test_random_subspace_draws_are_pinned():
    """The rejection loop draws the same subspaces for the same seeds, redraws included."""
    h = hashlib.sha256()
    for q, n, d, kind, seed in _PINNED_DRAWS:
        M = sp.random_subspace(field_for_order(q), n, d, kind, seed)
        h.update(repr((q, n, d, kind, seed, M.key())).encode())
    assert h.hexdigest() == "6e28eb96aeef7af8434478fb17b02eef0fd30dfdb0d9af9243482a20caed187e"


def test_random_subspace_dimension_guard():
    with pytest.raises(ValueError, match="exceeds"):
        sp.random_subspace(F3, 2, 2, "alternating", 0)
