"""The MacWilliams identity for rank (Delsarte 1978) ties the rank spectra of M and its dual.

M^perp is the dual of M in Bil(V) under <A, B> = sum_ij A_ij B_ij.  With A_i and B_k the
numbers of forms of rank i in M and of rank k in M^perp,

    B_k = q^(-d) sum_i A_i P_k(i),
    P_k(x) = sum_{j=0..k} (-1)^(k-j) q^(nj + C(k-j, 2)) [n-j, n-k]_q [n-x, j]_q,

with [a, b]_q the Gaussian binomial (Delsarte, "Bilinear forms over a finite field, with
applications to coding theory", J. Combin. Theory A 25, 1978).  Both sides' counts come from
`rank_spectrum`; the identity is a closed form that shares no code with the elimination.  The
same paper gives the whole rank spectrum of a Gabidulin code in closed form, an oracle that
needs no second subspace.
"""

import glob
import os

import pytest
from conftest import catalogue_requests
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import trace

from bilrank import constructions as cons
from bilrank import fileio
from bilrank import linalg
from bilrank import spanspace as sp
from bilrank.gf import field_for_order, make_tower

MAX_ELEMENTS = 4**8  # both M and M^perp are enumerated
FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _gaussian_binomial(a: int, b: int, q: int) -> int:
    if b < 0 or b > a:
        return 0
    num = den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _krawtchouk(k: int, x: int, n: int, q: int) -> int:
    return sum(
        (-1) ** (k - j) * q ** (n * j + (k - j) * (k - j - 1) // 2)
        * _gaussian_binomial(n - j, n - k, q) * _gaussian_binomial(n - x, j, q)
        for j in range(k + 1)
    )


def _rank_counts(M) -> list[int]:
    """Number of forms of each rank 0..n in M, the zero form included."""
    counts = [1] + [0] * M.n
    for rnk, count in sp.rank_spectrum(M).counts:
        counts[rnk] = count
    return counts


def _dual(M):
    rows = linalg.right_null_space(M.field, M.basis_flat()) if M.dim else sp.kind_basis(M.field, M.n, "general")
    return sp.FormSubspace(M.field, M.n, rows.reshape(-1, M.n, M.n))


def _fits(q: int, n: int, d: int) -> bool:
    return q**d <= MAX_ELEMENTS and q ** (n * n - d) <= MAX_ELEMENTS


def _assert_macwilliams(M):
    q, n, d = M.field.q, M.n, M.dim
    dual = _dual(M)
    assert dual.dim == n * n - d
    a, b = _rank_counts(M), _rank_counts(dual)
    for k in range(n + 1):
        total = sum(a[i] * _krawtchouk(k, i, n, q) for i in range(n + 1))
        assert total % q**d == 0 and total // q**d == b[k], (M, k, a, b)


def test_krawtchouk_counts_the_forms_of_each_rank():
    """P_k(0) is the number of n x n forms of rank k, and the counts add up to q^(n^2)."""
    for q, n in [(2, 3), (3, 2), (4, 2)]:
        every = _rank_counts(sp.full_kind_space(field_for_order(q), n, "general"))
        assert [_krawtchouk(k, 0, n, q) for k in range(n + 1)] == every
        assert sum(every) == q ** (n * n)


def test_catalogue_members_and_fixtures():
    members = [cons.build(req)[0] for req in catalogue_requests()]
    paths = sorted(glob.glob(os.path.join(FIXTURE_DIR, "*.json")))
    members += [fileio.read_subspace(path).subspace for path in paths]
    members.append(sp.span([], field=field_for_order(3), n=2))
    checked = [M for M in members if _fits(M.field.q, M.n, M.dim)]
    assert len(checked) >= 30 and {M.kind for M in checked} == set(sp.KINDS)
    for M in checked:
        _assert_macwilliams(M)


_SHAPES = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in (2, 3, 4) if any(_fits(q, n, d) for d in range(n * n + 1))]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_general_subspaces(data):
    q, n = data.draw(st.sampled_from(_SHAPES))
    d = data.draw(st.sampled_from([d for d in range(n * n + 1) if _fits(q, n, d)]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    _assert_macwilliams(sp.random_subspace(field_for_order(q), n, d, "general", seed))


# --- Gabidulin codes: a rank spectrum in closed form --------------------------------------------


def _gabidulin(K, n: int, k: int):
    """f_a(x, y) = Tr(y * sum_{s<k} a_s x^(q^s)) on L = GF(q^n), each a_s over L's power basis b.

    Basis form (s, t) has a_s = b_t and every other a zero; its entry (i, j) is f(b_i, b_j).
    """
    tower = make_tower(K, n)
    top, b = tower.top, tower.power_basis()
    forms = [[[trace(tower, top.mul(top.mul(b[j], b[t]), top.pow(b[i], K.q**s))) for j in range(n)]
              for i in range(n)] for s in range(k) for t in range(n)]
    return sp.FormSubspace(K, n, forms)


def _gabidulin_counts(q: int, n: int, k: int) -> list[int]:
    """Delsarte's A_r for an n x n MRD code of dimension kn, minimum rank delta = n - k + 1, A_0 = 1.

    A_r = [n, r]_q sum_{j=0..r-delta} (-1)^j q^C(j,2) [r, j]_q (q^(n(r-delta-j+1)) - 1).
    """
    delta = n - k + 1
    return [1] + [
        _gaussian_binomial(n, r, q) * sum(
            (-1) ** j * q ** (j * (j - 1) // 2) * _gaussian_binomial(r, j, q) * (q ** (n * (r - delta - j + 1)) - 1)
            for j in range(r - delta + 1))
        for r in range(1, n + 1)
    ]


@pytest.mark.parametrize(
    "q, n, k",
    [(2, 2, 2), (2, 3, 2), (2, 4, 3), (2, 5, 2), (2, 6, 2), (3, 2, 2), (3, 3, 2), (3, 4, 2), (4, 2, 2), (4, 3, 2),
     (5, 3, 2)],
)
def test_gabidulin_spectrum_is_delsartes_closed_form(q, n, k):
    M = _gabidulin(field_for_order(q), n, k)
    assert M.dim == k * n
    want = _gabidulin_counts(q, n, k)
    assert sum(want) == q ** (k * n)
    assert _rank_counts(M) == want
    assert sp.rank_spectrum(M).ranks == tuple(range(n - k + 1, n + 1))


@pytest.mark.parametrize("q, n", [(2, 3), (2, 6), (3, 2), (4, 3), (5, 2)])
def test_gabidulin_of_one_term_is_the_symmetric_trace_family(q, n):
    K = field_for_order(q)
    assert _gabidulin(K, n, 1) == cons.symmetric_trace(K, n)
