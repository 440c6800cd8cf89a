"""Verify is invariant under congruence of V and change of basis of M.

G -> P^T G P for P in GL(n, q) is an isometry of Bil(V): it keeps every rank, the kind and
the dimensions of radicals, M_u, A_u and I(M).  A new basis Q B of M, Q in GL(d, q), keeps M
itself.  So every suite but maximality (whose sampled candidates depend on the basis) must
give the same verdicts, hypotheses, details and charged steps on M and on its image.  The
image is a fresh FormSubspace, so this also shows that nothing is kept across subspaces.
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


def _image(M, rng):
    """P^T G P for every G of M, in the new basis Q B of the image."""
    F, n = M.field, M.n
    P = _invertible(F, n, rng)
    stack = F.matmul_arr(P.T[None], F.matmul_arr(M.basis_flat().reshape(-1, n, n), P[None]))
    flat = F.matmul_arr(_invertible(F, M.dim, rng), stack.reshape(M.dim, n * n)) if M.dim else stack
    return sp.FormSubspace(F, n, flat.reshape(-1, n, n))


def _outcome(M, declared, monkeypatch):
    """(reports as JSON without basis-dependent witnesses, rank counts, steps charged)."""
    steps = []
    charge = sp.charge

    def counted(items, cell_cost, budget, what):
        steps.append(items * max(cell_cost, 1))
        return charge(items, cell_cost, budget, what)

    with monkeypatch.context() as patch:
        patch.setattr(sp, "charge", counted)
        patch.setattr(tl, "charge", counted)
        reports = tl.run_suite(M, SUITES, declared=declared)
    out = []
    for rep in reports:
        obj = rep.to_json()
        for witness in (obj["witness"], obj["details"].get("informational", {}).get("witness")):
            if witness is not None and witness["kind"] == "radical-equality":
                # the first two lines with distinct radicals, as coefficients in M's basis
                del witness["left_pair"], witness["right_pair"]
        out.append(obj)
    return out, sp.rank_spectrum(M).counts, sum(steps)


def _assert_invariant(M, declared, rng, monkeypatch):
    """M against its image, both fresh: the first call that computes a stored result charges its walk too."""
    fresh = sp.FormSubspace(M.field, M.n, M.basis_flat().reshape(-1, M.n, M.n))
    image = _image(M, rng)
    assert image.kind == M.kind and image.dim == M.dim
    assert _outcome(image, declared, monkeypatch) == _outcome(fresh, declared, monkeypatch), M


def test_catalogue_members(catalogue, monkeypatch):
    rng = np.random.default_rng(17)
    for _, M, declared in catalogue:
        _assert_invariant(M, declared, rng, monkeypatch)


@pytest.mark.parametrize(
    "q, n, d, kind",
    [(2, 3, 3, "general"), (3, 3, 2, "symmetric"), (3, 4, 3, "alternating"), (4, 3, 2, "symmetric"),
     (5, 2, 2, "general"), (9, 3, 2, "alternating")],
)
def test_random_subspaces(q, n, d, kind, monkeypatch):
    rng = np.random.default_rng(q * 100 + n * 10 + d)
    for seed in range(3):
        _assert_invariant(sp.random_subspace(field_for_order(q), n, d, kind, seed), None, rng, monkeypatch)
