"""Verify is invariant under the symmetries of the problem.

G -> P^T G P for P in GL(n, q) is an isometry of Bil(V): it keeps every rank, the kind and
the dimensions of radicals, M_u, A_u and I(M).  A new basis Q B of M, Q in GL(d, q), keeps M
itself.  Frobenius x -> x^p on every entry is a field automorphism applied to all of M, so it
keeps the same quantities.  So every suite but maximality (whose sampled candidates depend on
the basis) must give the same verdicts, hypotheses, details and charged steps on M and on its
image; an exhaustive maximality scan must give the same verdict, mode and `maximal`.  Transposition G -> G^T swaps left and right, so on general M the image's reports are
M's with every left and right exchanged.  The image is a fresh FormSubspace and a catalogue M is
the session-shared member, whose results other tests may already have stored: equal steps show
that each call is charged the same whether or not its result was stored.
"""

import numpy as np
import pytest

from bilrank import linalg
from bilrank import spanspace as sp
from bilrank import theoremlab as tl
from bilrank.gf import field_for_order

SUITES = [name for name in tl.SUITE_NAMES if name != "maximality"]


def _invertible(F, size, rng):
    while True:
        P = rng.integers(0, F.q, size=(size, size))
        if linalg.rank(F, P) == size:
            return P


def _congruent(M, rng):
    """P^T G P for every G of M, in the new basis Q B of the image."""
    F, n = M.field, M.n
    P = _invertible(F, n, rng)
    stack = F.matmul_arr(P.T[None], F.matmul_arr(M.basis_flat().reshape(-1, n, n), P[None]))
    flat = F.matmul_arr(_invertible(F, M.dim, rng), stack.reshape(M.dim, n * n)) if M.dim else stack
    return sp.FormSubspace(F, n, flat.reshape(-1, n, n))


def _frobenius(M):
    """x -> x^p on every entry of every basis form."""
    F = M.field
    table = np.array([F.pow(x, F.p) for x in range(F.q)], dtype=np.int64)
    return sp.FormSubspace(F, M.n, table[M.basis_flat()].reshape(-1, M.n, M.n))


def _transposed(M):
    return sp.FormSubspace(M.field, M.n, M.basis_flat().reshape(-1, M.n, M.n).transpose(0, 2, 1))


def _witnesses(report):
    return [w for w in (report["witness"], report["details"].get("informational", {}).get("witness")) if w]


def _outcome(M, declared, monkeypatch):
    """(reports as JSON, rank counts, steps charged)."""
    steps = []
    charge = sp.charge

    def counted(items, cell_cost, budget, what):
        steps.append(items * max(cell_cost, 1))
        return charge(items, cell_cost, budget, what)

    with monkeypatch.context() as patch:
        patch.setattr(sp, "charge", counted)
        patch.setattr(tl, "charge", counted)
        reports = [rep.to_json() for rep in tl.run_suite(M, SUITES, declared=declared)]
    return reports, sp.rank_spectrum(M).counts, sum(steps)


def _without_pairs(outcome):
    """Drop the first two lines with distinct radicals: coefficients in M's basis, which the map moves."""
    for report in outcome[0]:
        for witness in _witnesses(report):
            if witness["kind"] == "radical-equality":
                del witness["left_pair"], witness["right_pair"]
    return outcome


def _assert_invariant(M, image, declared, monkeypatch):
    assert image.kind == M.kind and image.dim == M.dim
    assert _without_pairs(_outcome(image, declared, monkeypatch)) == _without_pairs(
        _outcome(M, declared, monkeypatch)), M


def test_catalogue_members(catalogue, monkeypatch):
    rng = np.random.default_rng(17)
    for _, M, declared in catalogue:
        _assert_invariant(M, _congruent(M, rng), declared, monkeypatch)


@pytest.mark.parametrize(
    "q, n, d, kind",
    [(2, 3, 3, "general"), (3, 3, 2, "symmetric"), (3, 4, 3, "alternating"), (4, 3, 2, "symmetric"),
     (5, 2, 2, "general"), (9, 3, 2, "alternating")],
)
def test_random_subspaces(q, n, d, kind, monkeypatch):
    rng = np.random.default_rng(q * 100 + n * 10 + d)
    for seed in range(3):
        M = sp.random_subspace(field_for_order(q), n, d, kind, seed)
        _assert_invariant(M, _congruent(M, rng), None, monkeypatch)


def test_frobenius_on_catalogue_members(catalogue, monkeypatch):
    """Frobenius is the identity on a prime field, so only the q = 4 members move."""
    members = [(M, declared) for _, M, declared in catalogue if M.field.q == 4]
    assert members
    for M, declared in members:
        _assert_invariant(M, _frobenius(M), declared, monkeypatch)


@pytest.mark.parametrize(
    "q, n, d, kind",
    [(4, 3, 2, "general"), (8, 3, 2, "symmetric"), (8, 2, 3, "general"), (9, 4, 2, "alternating"),
     (9, 3, 2, "symmetric"), (25, 2, 2, "general"), (25, 3, 1, "alternating")],
)
def test_frobenius_on_random_subspaces(q, n, d, kind, monkeypatch):
    moved = 0
    for seed in range(3):
        M = sp.random_subspace(field_for_order(q), n, d, kind, seed)
        image = _frobenius(M)
        moved += image != M
        _assert_invariant(M, image, None, monkeypatch)
    assert moved  # not every draw is defined over the prime field


def _sides_swapped(obj):
    """Every "left" and "right", in keys and in values, exchanged."""
    if isinstance(obj, dict):
        return {_sides_swapped(k): _sides_swapped(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_sides_swapped(v) for v in obj)
    if isinstance(obj, str):
        return obj.replace("left", "\0").replace("right", "left").replace("\0", "right")
    return obj


def _assert_transposition_swaps_sides(M, declared, monkeypatch):
    """The reports on M^T are M's with left and right exchanged, and the same rank counts and steps.

    One field moves otherwise: the counting identity's `kernel_dim_histogram` counts the left
    M_u, which on M^T are M's right M_u, whose dimensions can be spread differently over V
    (their sum, the identity's rhs, cannot change).
    """
    assert M.kind == "general"
    image = _transposed(M)
    reports, counts, steps = _outcome(M, declared, monkeypatch)
    # one entry per line of V, which holds q - 1 nonzero u
    right_dims = np.bincount(sp.kernel_dims_all(M, "right"), minlength=M.dim + 1) * (M.field.q - 1)
    for report in reports:
        for witness in _witnesses(report):
            if witness["kind"] == "counting-identity":
                witness["kernel_dim_histogram"] = {str(k): int(c) for k, c in enumerate(right_dims) if c}
    assert _outcome(image, declared, monkeypatch) == (_sides_swapped(reports), counts, steps), M


def test_transposition_on_catalogue_members(catalogue, monkeypatch):
    members = [(M, declared) for _, M, declared in catalogue if M.kind == "general"]
    assert members
    for M, declared in members:
        _assert_transposition_swaps_sides(M, declared, monkeypatch)


@pytest.mark.parametrize("q, n, d", [(2, 3, 3), (3, 3, 2), (4, 3, 4), (5, 2, 2), (9, 2, 2), (3, 4, 4), (2, 4, 5)])
def test_transposition_on_random_subspaces(q, n, d, monkeypatch):
    draws = [sp.random_subspace(field_for_order(q), n, d, "general", seed) for seed in range(4)]
    draws = [M for M in draws if M.kind == "general"]  # a symmetric draw is its own transpose
    assert draws
    for M in draws:
        _assert_transposition_swaps_sides(M, None, monkeypatch)


def _maximality(M, declared):
    report = tl.check_maximality(M, declared=declared)
    return report.verdict, report.details["mode"], report.details["maximal"]


def test_maximality_on_catalogue_members(catalogue):
    """Every exhaustively scanned constant-rank member with q^dk <= 4096, dk the ambient kind space's dim.

    The first extension in the scan, so `candidates_tried` and the witness, depend on the basis
    and are not compared.
    """
    rng = np.random.default_rng(23)
    members = [(M, declared) for _, M, declared in catalogue
               if sp.rank_spectrum(M).is_constant_rank and M.field.q ** sp.kind_space_dim(M.n, M.kind) <= 4096]
    assert len(members) == 30
    seen = set()
    for M, declared in members:
        want = _maximality(M, declared)
        assert want[1] == "exhaustive", M
        seen.add(want[2])
        images = [_congruent(M, rng)] + ([_frobenius(M)] if M.field.q == 4 else [])  # Frobenius moves GF(4) only
        for image in images:
            assert image.kind == M.kind and image.dim == M.dim
            assert _maximality(image, declared) == want, M
    assert seen == {True, False}
